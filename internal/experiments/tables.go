package experiments

import (
	"fmt"
	"io"
	"strings"

	"github.com/vipsim/vip/internal/cpu"
	"github.com/vipsim/vip/internal/ipcore"
	"github.com/vipsim/vip/internal/platform"
	"github.com/vipsim/vip/internal/workload"
)

// WriteTable1 prints Table 1: applications and their IP flows.
func WriteTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: Applications and their IP flows")
	fmt.Fprintf(w, "%-5s%-14s%s\n", "App", "Name", "IP Flows")
	for _, id := range workload.AppIDs() {
		a, err := workload.App(id)
		if err != nil {
			fmt.Fprintf(w, "%-5s error: %v\n", id, err)
			continue
		}
		flows := make([]string, 0, len(a.Flows))
		for i := range a.Flows {
			flows = append(flows, a.Flows[i].FlowString())
		}
		fmt.Fprintf(w, "%-5s%-14s%s\n", a.ID, a.Name, strings.Join(flows, "; "))
	}
}

// WriteTable2 prints Table 2: the multi-application workloads.
func WriteTable2(w io.Writer) {
	fmt.Fprintln(w, "Table 2: Multiple Applications Workloads")
	fmt.Fprintf(w, "%-6s%-22s%s\n", "Wkld", "Applications", "Use-case")
	for _, wl := range workload.Workloads() {
		names := make([]string, 0, len(wl.AppIDs))
		for _, id := range wl.AppIDs {
			a, _ := workload.App(id)
			names = append(names, a.Name)
		}
		fmt.Fprintf(w, "%-6s%-22s%s\n", wl.ID, strings.Join(names, " + "), wl.UseCase)
	}
}

// WriteTable3 prints Table 3: platform details.
func WriteTable3(w io.Writer) {
	cCPU := cpu.DefaultConfig()
	cMem := platform.DefaultConfig(platform.Baseline).DRAM
	fmt.Fprintln(w, "Table 3: Platform details")
	fmt.Fprintf(w, "  Processor    ARM-style ISA; %d-core processor; in-order 1-issue\n", cCPU.Cores)
	fmt.Fprintf(w, "  Memory       LPDDR3; %d channel; 1 rank; %d banks; tCL,tRP,tRCD = %v,%v,%v\n",
		cMem.Channels, cMem.BanksPerChannel, cMem.TCL, cMem.TRP, cMem.TRCD)
	fmt.Fprintf(w, "               peak bandwidth %.1f GB/s\n", cMem.PeakBPS()/1e9)
	fmt.Fprintf(w, "  IP params    Aud.Frame: 16KB; Vid.Frame: 4K (3840x2160); Camera: 2560x1620\n")
	fmt.Fprintf(w, "  Required FPS 60 (16.66 ms)\n")
	fmt.Fprintln(w, "  IP cores:")
	for k, ip := range platform.DefaultIPParams() {
		fmt.Fprintf(w, "    %-4v throughput %5.1f GB/s, per-frame %8v, active %5.0f mW\n",
			ipcore.Kind(k), ip.ThroughputBPS/1e9, ip.PerFrame, ip.ActiveW*1e3)
	}
}
