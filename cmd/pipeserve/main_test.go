package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// A client that opens a connection, sends half a request line and stalls
// must be hung up on once readHeaderTimeout passes, not hold a server
// goroutine forever.
func TestStalledHeadersAreClosed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer(http.NotFoundHandler())
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /op HT"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	// The server may answer 408 before hanging up; either way the read
	// side must reach EOF by itself, and not before the timeout.
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("server kept the stalled connection open: %v", err)
	}
	if waited := time.Since(start); waited < readHeaderTimeout/2 {
		t.Fatalf("connection closed after %v, long before the %v header timeout", waited, readHeaderTimeout)
	}
}
