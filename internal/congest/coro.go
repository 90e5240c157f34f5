//go:build !race

package congest

import "iter"

// pull starts a node's coroutine; race-detector builds use the stand-in in
// coro_race.go.
var pull = iter.Pull[struct{}]
