package experiments

import (
	"bytes"
	"os"
	"testing"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/reliable"
	"lcshortcut/internal/scenario"
)

// TestChaosEmptyPlanGoldenIdentity is the differential chaos sweep: it
// installs an explicit empty FaultPlan as the process-wide default — so every
// simulation in the registry that would run fault-free instead runs through
// the fault layer with all faults disabled — and requires the full golden
// document to stay byte-identical to the committed baseline. This proves the
// fault layer is a true no-op when disabled: every drop check, crash check
// and adversary hook executes and changes nothing.
func TestChaosEmptyPlanGoldenIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep reruns the full short registry; skipped under -short")
	}
	f, err := os.Open("testdata/golden_short.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	baseline, err := ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	stripWall(baseline)
	var want bytes.Buffer
	if err := WriteJSON(&want, baseline); err != nil {
		t.Fatal(err)
	}
	prev := congest.SetDefaultFaults(&congest.FaultPlan{})
	defer congest.SetDefaultFaults(prev)
	got := runShortUncached(t, 1).json
	if !bytes.Equal(want.Bytes(), got) {
		t.Fatal("registry output drifted under the empty FaultPlan — the disabled fault layer is not a no-op")
	}
}

// TestChaosDropSweep is the nightly chaos sweep: the reliable transport must
// push a broadcast to full coverage on EVERY scenario family at every drop
// rate in {0.05, 0.2, 0.5}, without a single live arc being declared dead.
// It is gated behind CHAOS_DROP_SWEEP=1 (the nightly chaos job sets it) so
// the regular test run doesn't pay for the drop-0.5 retransmission storms.
func TestChaosDropSweep(t *testing.T) {
	if os.Getenv("CHAOS_DROP_SWEEP") == "" {
		t.Skip("nightly chaos sweep; set CHAOS_DROP_SWEEP=1 to run")
	}
	for _, drop := range []float64{0.05, 0.2, 0.5} {
		for _, s := range scenario.All() {
			g := s.Build(s.Sizes[0], 1)
			n := g.NumNodes()
			budget := 2*g.ApproxDiameter(0) + 8
			heard := make([]bool, n)
			plan := &congest.FaultPlan{DropProb: drop, Seed: 99}
			_, rstats, err := reliable.Run(g, func(ctx *reliable.Ctx) error {
				knows := ctx.ID() == 0
				for r := 0; r < budget; r++ {
					if knows {
						ctx.SendAll(ft1Beat{})
					}
					if len(ctx.StepRound()) > 0 {
						knows = true
					}
				}
				heard[ctx.ID()] = knows
				return nil
			}, reliable.Config{}, congest.Options{Seed: 1, Faults: plan})
			if err != nil {
				t.Fatalf("drop=%g %s: %v", drop, s.Name, err)
			}
			for v, k := range heard {
				if !k {
					t.Errorf("drop=%g %s: node %d never informed", drop, s.Name, v)
				}
			}
			if drop > 0 && rstats.Retransmits == 0 {
				t.Errorf("drop=%g %s: transport reports zero retransmits under loss", drop, s.Name)
			}
			if rstats.DeadArcs != 0 {
				t.Errorf("drop=%g %s: %d live arcs declared dead (failure-detector misfire)", drop, s.Name, rstats.DeadArcs)
			}
		}
	}
}
