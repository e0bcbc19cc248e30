package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Spans are recorded only in a traced run, from the benchmark's own side of
// each layer boundary: around the client call, in a RoundTripper wrapped
// into the client's http.Client, in a wrapper around lockd's Handler, around
// the explore call, and around each replay of the explorer's body. All
// spans of one passage (or one exploration) share an id; the parent of a
// span is implied by its kind.
type spanKind uint8

const (
	spanPassage spanKind = iota // lane: due time to release returned
	spanClientAcquire
	spanClientRelease
	spanHTTPAcquire // one HTTP attempt: RoundTrip to response body closed
	spanHTTPRelease
	spanHandlerAcquire // lockd's Handler serving one request
	spanHandlerRelease
	spanExplore // one whole exploration
	spanReplay  // one replay of the explorer's body
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"passage", "client.acquire", "client.release", "http.acquire", "http.release",
	"lockd.acquire", "lockd.release", "explore", "replay",
}

var spanParents = [numSpanKinds]string{
	"", "passage", "passage", "client.acquire", "client.release",
	"http.acquire", "http.release", "", "explore",
}

type span struct {
	id         uint64
	kind       spanKind
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps a run's spans in memory until write, and counts the bytes
// and dials its transports see. A nil *tracer is an untraced run.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span

	dials atomic.Int64
	bytes atomic.Int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(id uint64, kind spanKind, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{id, kind, start, end})
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as one JSON line in the gzip file path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	for _, s := range t.snapshot() {
		fmt.Fprintf(w, `{"id":%d,"span":%q,"parent":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.id, spanNames[s.kind], spanParents[s.kind], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// passageKey carries a passage's span id from the lane, through
// lockd/client, to the traced RoundTripper.
type passageKey struct{}

func withPassage(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, passageKey{}, id)
}

// spanHeader carries the passage id from the traced RoundTripper to the
// traced handler.
const spanHeader = "X-Perfbench-Span"

func isRelease(path string) bool { return strings.HasSuffix(path, "/release") }

// transport returns the RoundTripper a lane's client uses: one connection,
// and in a traced run, spans per attempt plus dial and byte counts.
func (t *tracer) transport() http.RoundTripper {
	base := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	if t == nil {
		return base
	}
	var d net.Dialer
	base.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		c, err := d.DialContext(ctx, network, addr)
		if err != nil {
			return nil, err
		}
		t.dials.Add(1)
		return &countConn{Conn: c, n: &t.bytes}, nil
	}
	return &tracedTransport{t: t, next: base}
}

type tracedTransport struct {
	t    *tracer
	next *http.Transport
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id, _ := req.Context().Value(passageKey{}).(uint64)
	kind := spanHTTPAcquire
	if isRelease(req.URL.Path) {
		kind = spanHTTPRelease
	}
	r := req.Clone(req.Context())
	r.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	start := tt.t.now()
	resp, err := tt.next.RoundTrip(r)
	if err != nil {
		tt.t.add(id, kind, start, tt.t.now())
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { tt.t.add(id, kind, start, tt.t.now()) }}
	return resp, nil
}

func (tt *tracedTransport) CloseIdleConnections() { tt.next.CloseIdleConnections() }

// spanBody ends its attempt's span when the client closes the body, so the
// span covers reading and decoding the response.
type spanBody struct {
	io.ReadCloser
	end  func()
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

type countConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// handler wraps lockd's Handler with a span per request.
func (t *tracer) handler(next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		kind := spanHandlerAcquire
		if isRelease(r.URL.Path) {
			kind = spanHandlerRelease
		}
		start := t.now()
		next.ServeHTTP(w, r)
		t.add(id, kind, start, t.now())
	})
}

// svcLayers is the per-passage breakdown of a traced service window.
type svcLayers struct {
	clientAcqSelf, clientRelSelf []int64 // client call minus its HTTP attempts
	clientAcq                    []int64 // whole client acquire call
	httpAcq, httpRel             []int64 // summed HTTP attempts per call
	wire                         []int64 // HTTP attempt minus handler, per call
	wireAcq                      []int64 // the same, acquire calls only
	handlerAcq, handlerRel       []int64
	attempts, calls              int
}

// breakdown splits each completed passage's client calls into client self
// time, transport (wire) time and handler time.
func breakdown(spans []span) svcLayers {
	type acc struct{ d [numSpanKinds]int64 }
	var n [numSpanKinds]int
	per := map[uint64]*acc{}
	for _, s := range spans {
		if s.kind > spanHandlerRelease || s.id == 0 {
			continue // not a service span, or a set-up passage
		}
		a := per[s.id]
		if a == nil {
			a = &acc{}
			per[s.id] = a
		}
		a.d[s.kind] += s.end - s.start
		n[s.kind]++
	}
	var l svcLayers
	l.attempts = n[spanHTTPAcquire] + n[spanHTTPRelease]
	l.calls = n[spanClientAcquire] + n[spanClientRelease]
	for _, a := range per {
		d := a.d
		if d[spanPassage] == 0 || d[spanClientRelease] == 0 || d[spanHandlerRelease] == 0 {
			continue // failed or unfinished passage
		}
		l.clientAcq = append(l.clientAcq, d[spanClientAcquire])
		l.clientAcqSelf = append(l.clientAcqSelf, d[spanClientAcquire]-d[spanHTTPAcquire])
		l.clientRelSelf = append(l.clientRelSelf, d[spanClientRelease]-d[spanHTTPRelease])
		l.httpAcq = append(l.httpAcq, d[spanHTTPAcquire])
		l.httpRel = append(l.httpRel, d[spanHTTPRelease])
		l.wire = append(l.wire, d[spanHTTPAcquire]-d[spanHandlerAcquire], d[spanHTTPRelease]-d[spanHandlerRelease])
		l.wireAcq = append(l.wireAcq, d[spanHTTPAcquire]-d[spanHandlerAcquire])
		l.handlerAcq = append(l.handlerAcq, d[spanHandlerAcquire])
		l.handlerRel = append(l.handlerRel, d[spanHandlerRelease])
	}
	return l
}
