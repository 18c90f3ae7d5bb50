// Package energy provides the power/energy bookkeeping used by every
// component model: a categorised joule accumulator, standard power-state
// helpers, and an analytic CACTI-like SRAM model for sizing the IP flow
// buffers (paper Figure 14b).
//
// Conventions: power is expressed in watts, energy in joules, and all
// integration is done against sim.Time residencies by the component that
// owns the state machine.
package energy

import (
	"encoding/json"
	"fmt"
	"strings"

	"github.com/vipsim/vip/internal/sim"
)

// Category labels a sink of energy in the platform. The experiment
// harnesses report both totals and per-category breakdowns.
//
// Categories are dense slot indices, so charging energy is an array add;
// their names are used only when an account is reported (String,
// TotalPrefix, JSON).
type Category uint8

// The categories used by the platform models, declared in name order so
// that slot order is report order.
const (
	CPUActive      Category = iota // cpu.active
	CPUIdle                        // cpu.idle
	CPUSleep                       // cpu.sleep
	CPUWake                        // cpu.wake
	DRAMActivate                   // dram.activate
	DRAMBackground                 // dram.background
	DRAMDynamic                    // dram.dynamic
	IPActive                       // ip.active
	FlowBuffer                     // ip.flowbuffer
	IPIdle                         // ip.idle
	IPStall                        // ip.stall
	SystemAgent                    // sa

	numCategories
)

// Account.touched has one bit per category: this overflows, and so fails
// to compile, once there are more categories than bits.
const _ = uint16(1<<numCategories - 1)

// categoryNames is the report name of each slot, sorted.
var categoryNames = [numCategories]string{
	CPUActive:      "cpu.active",
	CPUIdle:        "cpu.idle",
	CPUSleep:       "cpu.sleep",
	CPUWake:        "cpu.wake",
	DRAMActivate:   "dram.activate",
	DRAMBackground: "dram.background",
	DRAMDynamic:    "dram.dynamic",
	IPActive:       "ip.active",
	FlowBuffer:     "ip.flowbuffer",
	IPIdle:         "ip.idle",
	IPStall:        "ip.stall",
	SystemAgent:    "sa",
}

// String reports the category's name.
func (c Category) String() string {
	if c < numCategories {
		return categoryNames[c]
	}
	return fmt.Sprintf("Category(%d)", uint8(c))
}

// categoryNamed resolves a report name to its slot.
func categoryNamed(name string) (Category, bool) {
	for c, n := range categoryNames {
		if n == name {
			return Category(c), true
		}
	}
	return 0, false
}

// Account accumulates joules by category. The zero value is ready to use.
// Account is not safe for concurrent use; the simulation is single-threaded.
type Account struct {
	joules  [numCategories]float64
	touched uint16 // bit c set once category c has been charged, even 0 J
}

// Add records j joules against category c. Negative j panics: components
// must never un-spend energy.
func (a *Account) Add(c Category, j float64) {
	if j < 0 {
		panic(fmt.Sprintf("energy: negative energy %g for %s", j, c))
	}
	a.joules[c] += j
	a.touched |= 1 << c
}

// AddPower records power w (watts) applied for duration d.
func (a *Account) AddPower(c Category, w float64, d sim.Time) {
	if d < 0 {
		panic(fmt.Sprintf("energy: negative duration %v for %s", d, c))
	}
	a.Add(c, w*d.Seconds())
}

// Get reports the joules accumulated against c.
func (a *Account) Get(c Category) float64 { return a.joules[c] }

// has reports whether c has been charged.
func (a *Account) has(c Category) bool { return a.touched&(1<<c) != 0 }

// Total reports the sum over all categories. Summation follows sorted
// category order so the result is bit-for-bit reproducible.
func (a *Account) Total() float64 {
	var t float64
	for c := Category(0); c < numCategories; c++ {
		if a.has(c) {
			t += a.joules[c]
		}
	}
	return t
}

// TotalPrefix sums every category whose name starts with prefix, so
// TotalPrefix("cpu.") is total CPU energy. Summation follows sorted
// category order so the result is bit-for-bit reproducible.
func (a *Account) TotalPrefix(prefix string) float64 {
	var t float64
	for c := Category(0); c < numCategories; c++ {
		if a.has(c) && strings.HasPrefix(categoryNames[c], prefix) {
			t += a.joules[c]
		}
	}
	return t
}

// Merge adds every category of other into a.
func (a *Account) Merge(other *Account) {
	for _, c := range other.Categories() {
		a.Add(c, other.joules[c])
	}
}

// Categories returns the categories that have been charged (including
// any charged exactly 0 J), sorted by name.
func (a *Account) Categories() []Category {
	var cats []Category
	for c := Category(0); c < numCategories; c++ {
		if a.has(c) {
			cats = append(cats, c)
		}
	}
	return cats
}

// MarshalJSON renders the account as a {category: joules} object with
// one member per charged category. encoding/json sorts map keys, so the
// output is deterministic.
func (a *Account) MarshalJSON() ([]byte, error) {
	m := make(map[string]float64, numCategories)
	for _, c := range a.Categories() {
		m[categoryNames[c]] = a.joules[c]
	}
	return json.Marshal(m)
}

// UnmarshalJSON restores an account from its MarshalJSON form. A name
// that is not a declared category is an error: the account has no slot
// to hold it.
func (a *Account) UnmarshalJSON(b []byte) error {
	var m map[string]float64
	if err := json.Unmarshal(b, &m); err != nil {
		return err
	}
	var out Account
	for name, j := range m {
		c, ok := categoryNamed(name)
		if !ok {
			return fmt.Errorf("energy: unknown category %q", name)
		}
		out.joules[c] = j
		out.touched |= 1 << c
	}
	*a = out
	return nil
}

// String renders a human-readable breakdown in millijoules.
func (a *Account) String() string {
	var b strings.Builder
	for _, c := range a.Categories() {
		fmt.Fprintf(&b, "%-18s %10.3f mJ\n", c, a.joules[c]*1e3)
	}
	fmt.Fprintf(&b, "%-18s %10.3f mJ", "total", a.Total()*1e3)
	return b.String()
}
