package shortcutsvc

import (
	"bytes"
	"testing"
)

// FuzzRequest runs arbitrary bytes through the service's input path: the
// /shortcut decoder, then validate and build under a small node limit. No
// input may panic, every rejection must be a client error (400 or 413),
// and an accepted request must yield a connected graph within the limit
// whose partition is valid on it.
func FuzzRequest(f *testing.F) {
	for _, tc := range handlerCases {
		f.Add([]byte(tc.body))
	}
	cfg := Config{MaxNodes: 64}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeRequest(bytes.NewReader(data))
		if err != nil {
			return // the handler answers 400 "malformed request"
		}
		clientErr := func(stage string, err error) {
			if !IsBadRequest(err) && !IsTooLarge(err) {
				t.Fatalf("%s rejected %q with a non-client error: %v", stage, data, err)
			}
		}
		if err := req.validate(cfg); err != nil {
			clientErr("validate", err)
			return
		}
		g, p, err := req.build(cfg)
		if err != nil {
			clientErr("build", err)
			return
		}
		if n := g.NumNodes(); n > cfg.MaxNodes {
			t.Fatalf("accepted a %d-node graph over the limit %d", n, cfg.MaxNodes)
		}
		if !g.Connected() {
			t.Fatal("accepted a disconnected graph")
		}
		if err := p.Validate(g); err != nil {
			t.Fatalf("accepted an invalid partition: %v", err)
		}
	})
}
