package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestHTTPServerTimeouts pins the daemon's http.Server policy: a header
// read timeout, and no read or write deadline that would cut off an SSE
// stream or a long result download.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Fatalf("ReadTimeout %v / WriteTimeout %v would cut off streams", hs.ReadTimeout, hs.WriteTimeout)
	}
}

// TestHeaderTimeoutBoundsHeadersOnly serves a constructor-built server
// with a short header timeout: a client that stalls mid-headers is
// disconnected, while a response that streams for several times the
// timeout completes.
func TestHeaderTimeoutBoundsHeadersOnly(t *testing.T) {
	const timeout = 100 * time.Millisecond
	hs := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rc := http.NewResponseController(w)
		for i := 0; i < 5; i++ {
			fmt.Fprintf(w, "data: %d\n\n", i)
			rc.Flush()
			time.Sleep(timeout)
		}
	}))
	hs.ReadHeaderTimeout = timeout
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()

	// Stalled headers: the server hangs up without a response.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprint(conn, "GET / HTTP/1.1\r\nHost: x\r\n")
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("stalled-header connection: read %d bytes, err %v; want EOF", n, err)
	}

	// A stream outliving the header timeout is not cut off.
	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var frames int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "data: ") {
			frames++
		}
	}
	if err := sc.Err(); err != nil || frames != 5 {
		t.Fatalf("stream got %d of 5 frames (err %v)", frames, err)
	}
}
