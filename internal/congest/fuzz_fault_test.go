package congest

import (
	"fmt"
	"testing"

	"lcshortcut/internal/scenario"
)

// FuzzFaultPlan drives random seeded fault plans over random registry graphs
// and requires one shard and three to agree exactly — same per-node outcomes,
// same Stats, same error (or none) — and to terminate (the MaxRounds
// watchdog bounds every input, so a hang is a test timeout, not a silent
// pass). This is the fault layer's determinism contract under adversarial
// inputs rather than hand-picked ones.
func FuzzFaultPlan(f *testing.F) {
	f.Add(uint8(0), int64(1), int64(2), uint16(0), uint8(0), uint8(1), false)
	f.Add(uint8(3), int64(7), int64(8), uint16(400), uint8(30), uint8(4), true)
	f.Add(uint8(7), int64(-5), int64(0), uint16(1000), uint8(100), uint8(2), false)
	f.Add(uint8(12), int64(99), int64(42), uint16(150), uint8(60), uint8(7), true)
	f.Fuzz(func(t *testing.T, famIdx uint8, gseed, pseed int64, dropMilli uint16, crashPct, crashWindow uint8, rotate bool) {
		fams := scenario.All()
		fam := fams[int(famIdx)%len(fams)]
		g := fam.Build(64, gseed)
		plan := &FaultPlan{
			Crashes:  RandomCrashes(g.NumNodes(), float64(crashPct%101)/100, 1+int(crashWindow%8), -1, pseed),
			DropProb: float64(dropMilli%1001) / 1000,
			Seed:     pseed,
		}
		if rotate {
			plan.Adversary = AdversaryRotate
		}
		var refOut []int
		var refStats Stats
		var refErr error
		for _, sh := range shardings {
			out := make([]int, g.NumNodes())
			stats, err := runAt(sh.shards, g, faultyMessyProc(out), Options{Seed: gseed ^ pseed, Faults: plan, MaxRounds: 64})
			if sh.shards == 1 {
				refOut, refStats, refErr = out, stats, err
				continue
			}
			if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
				t.Fatalf("%s on %s: err %v, eventloop err %v", sh.name, fam.Name, err, refErr)
			}
			if err != nil {
				continue // aborted runs leave outcomes undefined; errors matched
			}
			if fmt.Sprint(out) != fmt.Sprint(refOut) {
				t.Fatalf("%s on %s: outcomes diverged under plan %+v", sh.name, fam.Name, plan)
			}
			if stats != refStats {
				t.Fatalf("%s on %s: stats %+v, eventloop %+v", sh.name, fam.Name, stats, refStats)
			}
		}
	})
}
