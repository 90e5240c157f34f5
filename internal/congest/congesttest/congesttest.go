// Package congesttest holds the shard-count identity check the protocol
// packages' tests share: every seeded output, Stats and error must be the
// same at one shard and at three — results must not depend on the shard
// count. Three shards cross relay rings and wake sleepers across shards
// even where GOMAXPROCS is 1. That sleeping is the same as stepping through
// every round stays pinned at the protocol level by the golden outputs,
// recorded when every node still stepped every round, and at the engine
// level by congest's FuzzStepUntil.
package congesttest

import (
	"fmt"
	"reflect"
	"testing"

	"lcshortcut/internal/congest"
)

// Shardings lists the shard counts a protocol must agree on, reference
// first. Name is the subtest name a test gives each count.
var Shardings = []struct {
	Name   string
	Shards int
}{
	{"eventloop", 1},
	{"sharded", 3},
}

// Identical calls run once per shard count in Shardings and fails t unless
// every count returns the one-shard output (reflect.DeepEqual), Stats and
// error text. It returns the one-shard results. run must pass its shards
// argument to congest.Run as Options.Shards.
func Identical(t testing.TB, run func(shards int) (any, congest.Stats, error)) (any, congest.Stats, error) {
	t.Helper()
	ref, refStats, refErr := run(Shardings[0].Shards)
	for _, sh := range Shardings[1:] {
		out, stats, err := run(sh.Shards)
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("%s: err %v, %s err %v", sh.Name, err, Shardings[0].Name, refErr)
		}
		if stats != refStats {
			t.Fatalf("%s: stats %+v, %s stats %+v", sh.Name, stats, Shardings[0].Name, refStats)
		}
		if !reflect.DeepEqual(out, ref) {
			t.Fatalf("%s: output diverges from %s", sh.Name, Shardings[0].Name)
		}
	}
	return ref, refStats, refErr
}
