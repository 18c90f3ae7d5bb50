package energy

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"github.com/vipsim/vip/internal/sim"
)

func TestAccountAddAndTotal(t *testing.T) {
	var a Account
	a.Add(CPUActive, 1.5)
	a.Add(CPUActive, 0.5)
	a.Add(DRAMDynamic, 2.0)
	if got := a.Get(CPUActive); got != 2.0 {
		t.Errorf("Get(CPUActive) = %v, want 2", got)
	}
	if got := a.Total(); got != 4.0 {
		t.Errorf("Total = %v, want 4", got)
	}
}

func TestAccountZeroValue(t *testing.T) {
	var a Account
	if a.Total() != 0 || a.Get(CPUIdle) != 0 {
		t.Error("zero-value Account should read as empty")
	}
	if len(a.Categories()) != 0 {
		t.Error("zero-value Account should have no categories")
	}
}

func TestAccountNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative energy")
		}
	}()
	var a Account
	a.Add(CPUActive, -1)
}

func TestAccountAddPower(t *testing.T) {
	var a Account
	a.AddPower(IPActive, 2.0, 500*sim.Millisecond) // 2 W for 0.5 s = 1 J
	if got := a.Get(IPActive); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("AddPower = %v J, want 1", got)
	}
}

func TestAccountAddPowerNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative duration")
		}
	}()
	var a Account
	a.AddPower(IPActive, 1, -sim.Second)
}

func TestAccountTotalPrefix(t *testing.T) {
	var a Account
	a.Add(CPUActive, 1)
	a.Add(CPUIdle, 2)
	a.Add(CPUSleep, 3)
	a.Add(DRAMDynamic, 10)
	if got := a.TotalPrefix("cpu."); got != 6 {
		t.Errorf("TotalPrefix(cpu.) = %v, want 6", got)
	}
	if got := a.TotalPrefix("dram."); got != 10 {
		t.Errorf("TotalPrefix(dram.) = %v, want 10", got)
	}
}

func TestAccountMerge(t *testing.T) {
	var a, b Account
	a.Add(CPUActive, 1)
	b.Add(CPUActive, 2)
	b.Add(SystemAgent, 5)
	a.Merge(&b)
	if a.Get(CPUActive) != 3 || a.Get(SystemAgent) != 5 {
		t.Errorf("Merge produced %v", a.String())
	}
}

func TestAccountCategoriesSorted(t *testing.T) {
	var a Account
	a.Add(SystemAgent, 1)
	a.Add(CPUActive, 1)
	a.Add(IPActive, 1)
	cats := a.Categories()
	for i := 1; i < len(cats); i++ {
		if cats[i-1].String() >= cats[i].String() {
			t.Fatalf("categories not sorted: %v", cats)
		}
	}
}

func TestAccountString(t *testing.T) {
	var a Account
	a.Add(CPUActive, 0.001)
	s := a.String()
	if !strings.Contains(s, "cpu.active") || !strings.Contains(s, "total") {
		t.Errorf("String missing fields: %q", s)
	}
}

// Property: Total is always the sum of category values and never negative.
func TestAccountTotalProperty(t *testing.T) {
	f := func(vals []float64) bool {
		var a Account
		var want float64
		for i, v := range vals {
			v = math.Abs(v)
			if math.IsInf(v, 0) || math.IsNaN(v) || v > 1e100 {
				continue
			}
			c := Category(i % int(numCategories))
			a.Add(c, v)
			want += v
		}
		return math.Abs(a.Total()-want) <= 1e-9*math.Max(1, math.Abs(want))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCategorySlotsInNameOrder pins the invariant Total and TotalPrefix
// rely on: walking the slots in index order walks the names in sorted
// order, so every sum adds its terms in the same order as a sort by name.
func TestCategorySlotsInNameOrder(t *testing.T) {
	for c := Category(1); c < numCategories; c++ {
		if c.String() <= (c - 1).String() {
			t.Errorf("slot %d %q does not sort after slot %d %q", c, c, c-1, c-1)
		}
	}
	if got := numCategories.String(); got != "Category(12)" {
		t.Errorf("out-of-range category renders as %q", got)
	}
}

// encodedAllCategories is the encoding of an account charged in every
// category, cpu.wake with exactly 0 J, as the string-keyed account wrote
// it; the dense account must keep these bytes.
const encodedAllCategories = `{"cpu.active":0.0004166666666666667,"cpu.idle":0.0008333333333333334,` +
	`"cpu.sleep":0.00125,"cpu.wake":0,"dram.activate":0.0025,"dram.background":0.002916666666666667,` +
	`"dram.dynamic":0.0020833333333333333,"ip.active":0.0033333333333333335,` +
	`"ip.flowbuffer":0.004583333333333333,"ip.idle":0.004166666666666667,"ip.stall":0.00375,"sa":0.005}`

func TestAccountJSONRoundTrip(t *testing.T) {
	var a Account
	for i, c := range []Category{CPUActive, CPUIdle, CPUSleep, CPUWake, DRAMDynamic, DRAMActivate,
		DRAMBackground, IPActive, IPStall, IPIdle, FlowBuffer, SystemAgent} {
		if c == CPUWake {
			a.Add(c, 0) // touched with zero joules: still a member
			continue
		}
		a.Add(c, float64(i+1)*1.25e-3/3)
	}
	b, err := json.Marshal(&a)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != encodedAllCategories {
		t.Fatalf("encoding changed:\n got %s\nwant %s", b, encodedAllCategories)
	}
	var back Account
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != a {
		t.Errorf("round trip changed the account:\n got %s\nwant %s", back.String(), a.String())
	}
	if len(back.Categories()) != int(numCategories) {
		t.Errorf("round trip kept %d categories, want %d", len(back.Categories()), numCategories)
	}
	var empty Account
	if b, _ := json.Marshal(&empty); string(b) != "{}" {
		t.Errorf("empty account encodes as %s, want {}", b)
	}
}

func TestAccountUnmarshalUnknownCategory(t *testing.T) {
	a := Account{}
	a.Add(CPUActive, 1)
	if err := json.Unmarshal([]byte(`{"cpu.active":1,"gpu.active":2}`), &a); err == nil {
		t.Fatal("unknown category decoded without error")
	}
	if a.Get(CPUActive) != 1 {
		t.Error("a failed decode modified the account")
	}
}

// TestAccountZeroAlloc asserts that charging energy costs no heap
// allocation, like the engine's TestEngineZeroAlloc* tests.
func TestAccountZeroAlloc(t *testing.T) {
	var a Account
	if n := testing.AllocsPerRun(1000, func() { a.Add(DRAMDynamic, 1e-9) }); n != 0 {
		t.Errorf("Add = %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { a.AddPower(IPActive, 0.5, sim.Microsecond) }); n != 0 {
		t.Errorf("AddPower = %v allocs/op, want 0", n)
	}
}

func TestSRAMAnchors(t *testing.T) {
	m := DefaultSRAM()
	// 0.5 KB anchor.
	if got := m.ReadEnergyNJ(512); math.Abs(got-0.0045) > 1e-9 {
		t.Errorf("ReadEnergyNJ(512) = %v, want 0.0045", got)
	}
	if got := m.AreaMM2(512); math.Abs(got-0.018) > 1e-9 {
		t.Errorf("AreaMM2(512) = %v, want 0.018", got)
	}
	// 64 KB should land near the paper's top-of-axis values.
	e64 := m.ReadEnergyNJ(64 << 10)
	if e64 < 0.04 || e64 > 0.07 {
		t.Errorf("ReadEnergyNJ(64KB) = %v, want within [0.04, 0.07]", e64)
	}
	a64 := m.AreaMM2(64 << 10)
	if a64 < 0.25 || a64 > 0.45 {
		t.Errorf("AreaMM2(64KB) = %v, want within [0.25, 0.45]", a64)
	}
}

func TestSRAMMonotone(t *testing.T) {
	m := DefaultSRAM()
	sizes := []int{512, 1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10}
	for i := 1; i < len(sizes); i++ {
		if m.ReadEnergyNJ(sizes[i]) <= m.ReadEnergyNJ(sizes[i-1]) {
			t.Errorf("read energy not increasing at %d", sizes[i])
		}
		if m.AreaMM2(sizes[i]) <= m.AreaMM2(sizes[i-1]) {
			t.Errorf("area not increasing at %d", sizes[i])
		}
	}
}

func TestSRAMWriteCostsMoreThanRead(t *testing.T) {
	m := DefaultSRAM()
	for _, s := range []int{512, 2048, 65536} {
		if m.WriteEnergyNJ(s) <= m.ReadEnergyNJ(s) {
			t.Errorf("write energy should exceed read energy at %d", s)
		}
	}
}

func TestSRAMZeroAndNegativeSize(t *testing.T) {
	m := DefaultSRAM()
	if m.ReadEnergyNJ(0) != 0 || m.AreaMM2(-5) != 0 {
		t.Error("non-positive sizes should cost nothing")
	}
}

func TestSRAMJouleConversion(t *testing.T) {
	m := DefaultSRAM()
	if got, want := m.ReadEnergyJ(2048), m.ReadEnergyNJ(2048)*1e-9; got != want {
		t.Errorf("ReadEnergyJ = %v, want %v", got, want)
	}
	if got, want := m.WriteEnergyJ(2048), m.WriteEnergyNJ(2048)*1e-9; got != want {
		t.Errorf("WriteEnergyJ = %v, want %v", got, want)
	}
}

// Property: doubling capacity increases energy by the same factor every
// time (pure power law).
func TestSRAMPowerLawProperty(t *testing.T) {
	m := DefaultSRAM()
	f := func(k uint8) bool {
		s := 512 << (k % 7) // 512 .. 32768
		r1 := m.ReadEnergyNJ(2*s) / m.ReadEnergyNJ(s)
		r2 := m.ReadEnergyNJ(4*s) / m.ReadEnergyNJ(2*s)
		return math.Abs(r1-r2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
