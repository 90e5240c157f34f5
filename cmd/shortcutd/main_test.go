package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"lcshortcut/internal/shortcutsvc"
)

// TestServeQueryAndShutdown boots the server on an ephemeral port, drives a
// query through the full HTTP stack, cancels the context (the SIGTERM path),
// and checks the graceful drain: serve returns nil and logs the final stats.
func TestServeQueryAndShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	svc := shortcutsvc.New(shortcutsvc.Config{CacheEntries: 8})
	ctx, cancel := context.WithCancel(context.Background())
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln, svc, &out, 10*time.Second) }()

	url := "http://" + ln.Addr().String() + "/shortcut"
	body := `{"family":"ring","n":64,"seed":1,"partition":{"kind":"voronoi","parts":4,"seed":1}}`
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /shortcut = %d", resp.StatusCode)
	}
	var payload struct {
		Quality struct {
			Congestion int `json:"congestion"`
		} `json:"quality"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload.Quality.Congestion < 1 {
		t.Fatalf("congestion = %d, want >= 1", payload.Quality.Congestion)
	}

	cancel()
	select {
	case err := <-done:
		// The channel receive orders serve's buffer writes before the reads
		// below, so no extra synchronization is needed on out.
		if err != nil {
			t.Fatalf("serve returned %v after graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after context cancellation")
	}
	logged := out.String()
	for _, want := range []string{"listening on", "draining in-flight queries", "served 1 requests"} {
		if !strings.Contains(logged, want) {
			t.Errorf("output missing %q:\n%s", want, logged)
		}
	}
}

// TestServeDrainsStalledHeader connects over raw TCP, sends half a request
// header and stalls. Without a header read timeout the drain waits for that
// connection until net/http closes it on its own, about 5 s after accept,
// so a shorter drain budget runs out; with the timeout the server closes the
// connection and serve returns nil within the budget.
func TestServeDrainsStalledHeader(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	svc := shortcutsvc.New(shortcutsvc.Config{CacheEntries: 8})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const drain = 4 * time.Second
	done := make(chan error, 1)
	go func() { done <- serve(ctx, ln, svc, io.Discard, drain) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /shortcut HTTP/1.1\r\nHost: localhost\r\nContent-Ty"); err != nil {
		t.Fatal(err)
	}
	awaitAccepted(t, ln.Addr().String())

	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after %v with a stalled client", err, time.Since(start).Round(time.Millisecond))
		}
	case <-time.After(drain + 5*time.Second):
		t.Fatal("serve did not return after context cancellation")
	}
	// The server, not the client, ended the stalled connection: reading it
	// reaches EOF (after the server's 408 reply, if any).
	if err := conn.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if reply, err := io.ReadAll(conn); err != nil {
		t.Fatalf("stalled connection still open after the drain: read %q, %v", reply, err)
	}
	t.Logf("drained in %v", time.Since(start).Round(time.Millisecond))
}

// TestServeDrainsStalledBody connects over raw TCP, sends a complete request
// header and then less body than its Content-Length announces, and stalls:
// either 5 bytes of a 100-byte body, or a complete, valid JSON request under
// a Content-Length 100 bytes longer. Without a bound on the whole body read
// the handler, or net/http reading the rest of the body after the reply,
// waits forever, so the drain runs out; with the service's 5-s body
// deadline the handler fails the request, the server closes the connection
// and serve returns nil within the budget.
func TestServeDrainsStalledBody(t *testing.T) {
	valid := `{"family":"ring","n":16,"seed":1,"partition":{"kind":"voronoi","parts":2,"seed":1}}`
	cases := []struct {
		name          string
		contentLength int
		sent          string
	}{
		{"partial-body", 100, `{"fam`},
		{"inflated-content-length", len(valid) + 100, valid},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			svc := shortcutsvc.New(shortcutsvc.Config{CacheEntries: 8})
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			const drain = 8 * time.Second
			done := make(chan error, 1)
			go func() { done <- serve(ctx, ln, svc, io.Discard, drain) }()

			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			req := fmt.Sprintf("POST /shortcut HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", tc.contentLength, tc.sent)
			if _, err := io.WriteString(conn, req); err != nil {
				t.Fatal(err)
			}
			awaitAccepted(t, ln.Addr().String())

			start := time.Now()
			cancel()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("serve returned %v after %v with a stalled body", err, time.Since(start).Round(time.Millisecond))
				}
			case <-time.After(drain + 5*time.Second):
				t.Fatal("serve did not return after context cancellation")
			}
			// The server, not the client, ended the stalled connection:
			// reading it reaches EOF after the server's 400 reply.
			if err := conn.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
				t.Fatal(err)
			}
			reply, err := io.ReadAll(conn)
			if err != nil {
				t.Fatalf("stalled connection still open after the drain: read %q, %v", reply, err)
			}
			if !strings.HasPrefix(string(reply), "HTTP/1.1 400") {
				t.Fatalf("reply to the stalled body = %q, want a 400", reply)
			}
			t.Logf("drained in %v", time.Since(start).Round(time.Millisecond))
		})
	}
}

// awaitAccepted returns once the server has accepted every connection
// dialed to addr before the call: it serves one /healthz request on a new
// connection, which the listener's FIFO accept queue hands out after them.
// Without it a drain could close the listener while a stalled connection
// still waits in that queue, resetting it instead of draining it.
func awaitAccepted(t *testing.T, addr string) {
	t.Helper()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := client.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d", resp.StatusCode)
	}
}

// TestRunFlagErrors pins the CLI error contract: bad flags and stray
// positional arguments fail without binding a socket.
func TestRunFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"stray-positional"},
		{"-cache-entries", "not-a-number"},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), args, &out); err == nil {
			t.Errorf("run(%v) = nil, want error", args)
		}
	}
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-h"}, &out); err != nil {
		t.Errorf("run(-h) = %v, want nil", err)
	}
}

// TestRunListenError pins the error path when the address is unusable.
func TestRunListenError(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), []string{"-addr", "127.0.0.1:notaport"}, &out); err == nil {
		t.Fatal("run with invalid address = nil, want error")
	}
}
