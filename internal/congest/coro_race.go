//go:build race

package congest

import (
	"iter"
	"runtime"
)

// pull stands in for iter.Pull in race-detector builds. In Go 1.24 a
// coroutine that ends never releases its race-detector state, about 6 KB
// each, and a test suite's hundreds of thousands of node runs turn that into
// gigabytes; a goroutine releases it when it exits. The unbuffered hand-off
// runs the driver and the node one at a time, as a coroutine switch does,
// and gives the race detector the same happens-before edges. The node sends
// true when it yields and false when seq has ended.
func pull(seq iter.Seq[struct{}]) (next func() (struct{}, bool), stop func()) {
	ch := make(chan bool)
	var done, returned bool
	var panicked any
	go func() {
		defer func() {
			panicked = recover()
			ch <- false
		}()
		if <-ch {
			seq(func(struct{}) bool { ch <- true; return <-ch })
		}
		returned = true
	}()
	// switchTo resumes the node, or with run false makes its pending yield
	// return false, and reports whether it yielded again. Like iter.Pull it
	// re-raises a panic or runtime.Goexit that ended seq.
	switchTo := func(run bool) bool {
		if done {
			return false
		}
		ch <- run
		if <-ch {
			return true
		}
		done = true
		if panicked != nil {
			panic(panicked)
		}
		if !returned {
			runtime.Goexit()
		}
		return false
	}
	return func() (struct{}, bool) { return struct{}{}, switchTo(true) }, func() { switchTo(false) }
}
