package main

import (
	"errors"
	"flag"
	"fmt"
	"io"

	"lcshortcut/internal/congest"
	"lcshortcut/internal/elect"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/reliable"
)

// runRaft is the raft subcommand: the committing Raft consensus protocol over
// the per-arc reliable transport, under an optional crash/loss fault plan.
// The leader replicates -entries log entries; the run reports the committed
// prefix per survivor group and always checks commit safety. With
// -require-commit the exit status additionally demands liveness: every node
// in the surviving quorum component must commit the full log.
func runRaft(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("shortcutctl raft", flag.ContinueOnError)
	var (
		graphSpec   = fs.String("graph", "grid:8x8", "graph family: grid:WxH | torus:WxH | handled:WxHxG | ring:N | tree:N | er:N,P | lowerbound:MxL | pathpower:N,K")
		entries     = fs.Int("entries", 4, "log entries the elected leader drives to commit")
		seed        = fs.Int64("seed", 7, "protocol randomness seed (election timeouts)")
		crashFrac   = fs.Float64("crash-frac", 0, "fault plan: fraction of nodes that crash-stop")
		crashWindow = fs.Int("crash-window", 30, "fault plan: crashes land in physical rounds [1, window]")
		drop        = fs.Float64("drop", 0, "fault plan: independent per-message loss probability (the transport retransmits through it)")
		faultSeed   = fs.Int64("fault-seed", 1, "fault plan seed (independent of -seed)")
		require     = fs.Bool("require-commit", false, "exit nonzero unless the surviving quorum component commits all -entries entries")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		// The FlagSet already reported the problem and usage on stderr.
		return fmt.Errorf("invalid arguments")
	}
	if len(fs.Args()) > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *entries < 1 {
		return fmt.Errorf("-entries must be at least 1")
	}
	g, _, _, _, err := buildGraph(*graphSpec)
	if err != nil {
		return err
	}
	n := g.NumNodes()

	var plan *congest.FaultPlan
	dead := map[graph.NodeID]bool{}
	if *crashFrac > 0 || *drop > 0 {
		plan = &congest.FaultPlan{
			Crashes:  congest.RandomCrashes(n, *crashFrac, *crashWindow, -1, *faultSeed),
			DropProb: *drop,
			Seed:     *faultSeed,
		}
		for _, cr := range plan.Crashes {
			dead[cr.Node] = true
		}
		fmt.Fprintf(out, "fault plan: %d crashes (frac %g, window %d), drop %g, seed %d\n",
			len(plan.Crashes), *crashFrac, *crashWindow, *drop, *faultSeed)
	}
	skip := func(v graph.NodeID) bool { return dead[v] }

	cfg := elect.RaftLogConfig{Entries: *entries}.TunedFor(g.ApproxDiameter(0))
	outc := make([]elect.RaftLogOutcome, n)
	stats, rstats, err := reliable.Run(g, func(ctx *reliable.Ctx) error {
		return elect.RaftLogNet(ctx, cfg, outc)
	}, reliable.Config{}, congest.Options{Seed: *seed, Faults: plan})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "raft: n=%d m=%d, %d logical rounds in %d physical, %d messages, %d retransmits, %d dead arcs\n",
		n, g.NumEdges(), rstats.LogicalRounds, rstats.PhysicalRounds, stats.Messages, rstats.Retransmits, rstats.DeadArcs)

	// Safety is non-negotiable: conflicting commits are a protocol bug, not a
	// fault outcome, so they fail the run regardless of -require-commit.
	if err := elect.RaftLogConsistent(outc, skip); err != nil {
		return fmt.Errorf("commit safety violated: %w", err)
	}

	quorum := elect.QuorumComponent(g, dead)
	elections, minCommit := 0, -1
	for v, o := range outc {
		if skip(v) {
			continue
		}
		elections += o.Elections
	}
	for _, v := range quorum {
		if minCommit < 0 || outc[v].Commit < minCommit {
			minCommit = outc[v].Commit
		}
	}
	switch {
	case len(quorum) == 0:
		fmt.Fprintf(out, "no surviving component holds a quorum (%d/%d nodes needed): nothing may commit\n", n/2+1, n)
	default:
		leader := outc[quorum[0]].Leader
		fmt.Fprintf(out, "quorum component: %d nodes, leader %d at term %d, committed %d/%d entries (min over component), %d candidacies started\n",
			len(quorum), leader, outc[quorum[0]].Term, minCommit, *entries, elections)
	}
	fmt.Fprintf(out, "commit safety: ok (%d survivors, no conflicting commits)\n", n-len(dead))

	if *require {
		if len(quorum) == 0 {
			return fmt.Errorf("-require-commit: no surviving quorum component")
		}
		if minCommit < *entries {
			return fmt.Errorf("-require-commit: quorum component committed only %d/%d entries", minCommit, *entries)
		}
	}
	return nil
}
