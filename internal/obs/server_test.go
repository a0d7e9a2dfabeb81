package obs

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// TestServerBoundsIdleConnections pins NewServer's connection bounds:
// 32 connections that send nothing leave /healthz answering, and each
// is closed by the server once the header timeout has passed.
func TestServerBoundsIdleConnections(t *testing.T) {
	t.Parallel()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok\n") })
	srv := NewServer(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	idle := make([]net.Conn, 32)
	for i := range idle {
		if idle[i], err = net.Dial("tcp", ln.Addr().String()); err != nil {
			t.Fatal(err)
		}
		defer idle[i].Close()
	}
	opened := time.Now()
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatalf("/healthz beside 32 idle connections: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz beside 32 idle connections: %s", resp.Status)
	}

	// Each idle connection reads EOF — the server closed it — after the
	// header timeout and well before the read timeout.
	deadline := opened.Add(readHeaderTimeout + 3*time.Second)
	for i, c := range idle {
		c.SetReadDeadline(deadline)
		var b [1]byte
		n, err := c.Read(b[:])
		if waited := time.Since(opened); n != 0 || !errors.Is(err, io.EOF) || waited < readHeaderTimeout-100*time.Millisecond {
			t.Fatalf("idle connection %d: read %d bytes, %v after %v; want EOF once %v have passed", i, n, err, waited, readHeaderTimeout)
		}
	}
}
