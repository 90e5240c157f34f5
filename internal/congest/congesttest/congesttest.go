// Package congesttest holds the cross-engine identity check the protocol
// packages' tests share: every seeded output, Stats and error must be the
// same on EngineEventLoop, the engine at one shard, and on EngineSharded at
// the test binary's default shard count — results must not depend on the
// shard count. Both put waiting nodes to sleep; that sleeping is the same as
// stepping through every round stays pinned at the protocol level by the
// golden outputs, recorded when every node still stepped every round, and
// at the engine level by congest's FuzzStepUntil.
package congesttest

import (
	"fmt"
	"reflect"
	"testing"

	"lcshortcut/internal/congest"
)

// Engines lists the engines a protocol must agree on, reference first.
var Engines = []struct {
	Name string
	E    congest.Engine
}{
	{"eventloop", congest.EngineEventLoop},
	{"sharded", congest.EngineSharded},
}

// Identical runs run once per engine, selected with congest.SetEngine, and
// fails t unless every engine returns the one-shard engine's output
// (reflect.DeepEqual), Stats and error text. It returns the event-loop
// results. run must call congest.Run (not RunOn) so the selection applies,
// and no other simulation may be in flight meanwhile.
func Identical(t testing.TB, run func() (any, congest.Stats, error)) (any, congest.Stats, error) {
	t.Helper()
	var (
		ref      any
		refStats congest.Stats
		refErr   error
	)
	for i, eng := range Engines {
		prev := congest.SetEngine(eng.E)
		out, stats, err := run()
		congest.SetEngine(prev)
		if i == 0 {
			ref, refStats, refErr = out, stats, err
			continue
		}
		if fmt.Sprint(err) != fmt.Sprint(refErr) {
			t.Fatalf("%s: err %v, %s err %v", eng.Name, err, Engines[0].Name, refErr)
		}
		if stats != refStats {
			t.Fatalf("%s: stats %+v, %s stats %+v", eng.Name, stats, Engines[0].Name, refStats)
		}
		if !reflect.DeepEqual(out, ref) {
			t.Fatalf("%s: output diverges from %s", eng.Name, Engines[0].Name)
		}
	}
	return ref, refStats, refErr
}
