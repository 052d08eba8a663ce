package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// requestTimeout bounds one request's round trip.
const requestTimeout = 2 * time.Minute

// conn is one closed-loop client's keep-alive HTTP/1.1 connection to
// aeropackd.  A request is written and its response read on the calling
// goroutine.  net/http's Transport would hand every request to a
// connection's read and write goroutines instead: on two CPUs those
// extra wake-ups roughly doubled the client's CPU per request and
// competed with aeropackd for the same cores.
type conn struct {
	host string // "127.0.0.1:<port>"
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

// newConn returns a client of the aeropackd at base ("http://host:port").
// It dials on its first request, and again after a failed one.
func newConn(base string) *conn { return &conn{host: strings.TrimPrefix(base, "http://")} }

// close drops the connection; the next request dials a new one.
func (c *conn) close() {
	if c.nc != nil {
		_ = c.nc.Close() // nothing is buffered for writing: a close error loses nothing
		c.nc = nil
	}
}

// post sends one study request to path and reads the whole response
// body into buf.  It returns the status and the X-Aeropack-Cache header.
func (c *conn) post(path string, body []byte, buf *bytes.Buffer) (status int, cache string, err error) {
	if c.nc == nil {
		if c.nc, err = net.DialTimeout("tcp", c.host, requestTimeout); err != nil {
			return 0, "", err
		}
		c.br, c.bw = bufio.NewReaderSize(c.nc, 64<<10), bufio.NewWriterSize(c.nc, 16<<10)
	}
	if status, cache, err = c.roundTrip(path, body, buf); err != nil {
		c.close()
	}
	return status, cache, err
}

func (c *conn) roundTrip(path string, body []byte, buf *bytes.Buffer) (int, string, error) {
	if err := c.nc.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, "", err
	}
	// Writes to the bufio.Writer fail only as Flush does, checked below.
	_, _ = fmt.Fprintf(c.bw, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %s\r\n\r\n",
		path, c.host, strconv.Itoa(len(body)))
	_, _ = c.bw.Write(body)
	if err := c.bw.Flush(); err != nil {
		return 0, "", fmt.Errorf("sending request: %w", err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, "", fmt.Errorf("reading response: %w", err)
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	_ = resp.Body.Close() // read to EOF above: a close error loses nothing
	if err != nil {
		return 0, "", fmt.Errorf("reading response: %w", err)
	}
	if resp.Close {
		c.close()
	}
	return resp.StatusCode, resp.Header.Get("X-Aeropack-Cache"), nil
}
