package main

import (
	"cmp"
	"os"
	"slices"
	"strconv"
	"strings"
)

// maxSteal is the share of a round's demanded CPU time that the hypervisor
// may withhold before the round counts as contended. On the 2-vCPU VM the
// benchmark was built on, rounds with a steal share of a few hundredths
// already ran about a tenth slower than rounds with none. Contended rounds
// are left out of the end-to-end medians, so a burst of load from other
// tenants of the host does not count as the program's.
const maxSteal = 0.05

// cpuTicks is the machine-wide CPU time of the "cpu" line of /proc/stat,
// in clock ticks: busy is user, nice, system, irq and softirq time, steal
// the time the hypervisor ran something else while a vCPU wanted to run.
type cpuTicks struct {
	busy, steal int64
	ok          bool
}

// readCPU reads the aggregate CPU times; ok is false where /proc/stat is
// missing or unreadable.
func readCPU() cpuTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(f[i+1], 10, 64); err != nil {
			return cpuTicks{}
		}
	}
	// user nice system idle iowait irq softirq steal
	return cpuTicks{busy: v[0] + v[1] + v[2] + v[5] + v[6], steal: v[7], ok: true}
}

// stealShare is the share of the CPU time demanded between a and b that
// was stolen: steal / (busy + steal). It is 0 when either reading failed
// or nothing ran.
func stealShare(a, b cpuTicks) float64 {
	if !a.ok || !b.ok {
		return 0
	}
	steal := b.steal - a.steal
	return ratio(float64(steal), float64(b.busy-a.busy+steal))
}

// quiet returns the rounds whose steal share is at most maxSteal or, when
// fewer than least are, the least rounds with the smallest steal shares.
func quiet(rs []*round, least int) []*round {
	q := slices.Clone(rs)
	slices.SortStableFunc(q, func(a, b *round) int { return cmp.Compare(a.steal, b.steal) })
	n := 0
	for n < len(q) && (n < least || q[n].steal <= maxSteal) {
		n++
	}
	return q[:n]
}
