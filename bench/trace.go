package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// spanHeader carries a traced request's id from the client to the
// server-side span, which the trace writer links to its client span.
const spanHeader = "X-Bench-Req"

// span is one timed interval. Times are nanoseconds since the recorder
// started. Parent is the index of the enclosing span, -1 for a root.
// Self is the duration not covered by child spans, filled at the end.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req_id"`
	Alg    string `json:"alg,omitempty"`
	Self   int64  `json:"self_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in slices preallocated for the whole run. A
// writer claims a slot with one atomic add and publishes it with an
// atomic flag, which orders the client, handler and replay goroutines'
// writes with the final read without a lock on the request path.
type recorder struct {
	epoch time.Time
	next  atomic.Int64
	spans []span
	ready []atomic.Bool
}

// spanCapacity bounds a traced run's spans. The load may fill all but
// replayReserve of them; the rest are kept for the replays after it.
const (
	spanCapacity  = 1 << 19
	replayReserve = 1 << 16
)

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, spanCapacity), ready: make([]atomic.Bool, spanCapacity)}
}

// The methods below are no-ops on a nil recorder, so untraced runs
// share the traced code paths.

func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// add records s and returns its index, or -1 once the slots are used
// up, so tracing never allocates mid-run.
func (r *recorder) add(s span) int {
	if r == nil {
		return -1
	}
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		return -1
	}
	r.spans[i] = s
	r.ready[i].Store(true)
	return int(i)
}

// loadRoom reports whether the load may still trace a request (two
// spans) without eating into the replay's reserve.
func (r *recorder) loadRoom() bool {
	return r != nil && r.next.Load()+2 <= spanCapacity-replayReserve
}

// end closes span i at the current time. Only the goroutine that added
// a span may end it.
func (r *recorder) end(i int) {
	if r != nil && i >= 0 {
		r.spans[i].End = r.now()
	}
}

// child records a completed span under parent.
func (r *recorder) child(parent int, name, alg string, start int64, req int64) {
	if r == nil {
		return
	}
	r.add(span{Name: name, Start: start, End: r.now(), Parent: parent, Req: req, Alg: alg})
}

// snapshot links and measures the published spans and returns them.
// Call it once every writer has finished.
func (r *recorder) snapshot() []span {
	n := min(r.next.Load(), int64(len(r.spans)))
	out := r.spans[:n]
	for i := range out {
		// The Load pairs with add's Store; a slot never published
		// (which a finished writer cannot leave) becomes an empty root.
		if !r.ready[i].Load() {
			out[i] = span{Parent: -1}
		}
	}
	linkServerSpans(out)
	computeSelf(out)
	return out
}

// wrap records a serve.http span around every request that carries the
// span header; untraced requests pass straight through.
func (r *recorder) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
		id := req.Header.Get(spanHeader)
		if id == "" {
			h.ServeHTTP(rw, req)
			return
		}
		start := r.now()
		h.ServeHTTP(rw, req)
		reqID, err := strconv.ParseInt(id, 10, 64)
		if err != nil {
			reqID = -1
		}
		r.child(-1, "serve.http", "", start, reqID)
	})
}

// linkServerSpans makes each serve.http span the child of the client
// request span with the same request id.
func linkServerSpans(spans []span) {
	byReq := map[int64]int{}
	for i := range spans {
		if spans[i].Name == "request" {
			byReq[spans[i].Req] = i
		}
	}
	for i := range spans {
		if spans[i].Name != "serve.http" || spans[i].Parent >= 0 {
			continue
		}
		if p, ok := byReq[spans[i].Req]; ok {
			spans[i].Parent = p
		}
	}
}

// computeSelf sets each span's self time: its duration minus the part
// of its interval that the union of its children covers.
func computeSelf(spans []span) {
	children := make([][]int, len(spans))
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			children[p] = append(children[p], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.Self = s.dur() - covered
	}
}

// writeSpans writes the spans as one JSON array, a span per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if _, err := bw.WriteString("[\n"); err != nil {
		return err
	}
	for i := range spans {
		if i > 0 {
			if _, err := bw.WriteString(","); err != nil {
				return err
			}
		}
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]\n"); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// spanDurations returns the durations, or with self the self times, of
// the spans of one name (and algorithm, when alg is not empty) in
// microseconds.
func spanDurations(spans []span, name, alg string, self bool) []float64 {
	var xs []float64
	for i := range spans {
		s := &spans[i]
		if s.Name != name || (alg != "" && s.Alg != alg) {
			continue
		}
		d := s.dur()
		if self {
			d = s.Self
		}
		xs = append(xs, float64(d)/1e3)
	}
	return xs
}
