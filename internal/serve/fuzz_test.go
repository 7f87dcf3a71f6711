package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"medcc/internal/workflow"
)

// fuzzSrv/fuzzUncached are built once per fuzz process: the target
// exercises request decoding and the cache front end, not server
// construction. The pair differs only in the cache, so any divergence
// between their responses is a cache bug.
var (
	fuzzOnce     sync.Once
	fuzzSrv      *Server
	fuzzUncached *Server
)

func fuzzHandlers(f *testing.F) (cached, uncached http.Handler) {
	fuzzOnce.Do(func() {
		s, err := New(Config{Workers: 2})
		if err != nil {
			f.Fatal(err)
		}
		u, err := New(Config{Workers: 2, Cache: CacheConfig{Disable: true}})
		if err != nil {
			f.Fatal(err)
		}
		fuzzSrv, fuzzUncached = s, u
	})
	return fuzzSrv.Handler(), fuzzUncached.Handler()
}

// FuzzServeRequest feeds arbitrary bodies and query strings through the
// /schedule endpoint: malformed input must map to a 4xx status, never a
// panic or a 5xx, and every 200 must carry a body that decodes.
func FuzzServeRequest(f *testing.F) {
	w, cat := workflow.PaperExample()
	golden, err := json.Marshal(map[string]any{
		"workflow": w, "catalog": cat, "budget_fraction": 0.5,
	})
	if err != nil {
		f.Fatal(err)
	}
	refs, err := json.Marshal(map[string]any{
		"workflow_ref": "example", "catalog_ref": "paper", "budget": 100.0, "simulate": true,
	})
	if err != nil {
		f.Fatal(err)
	}

	f.Add("budget=100", []byte{})
	f.Add("", golden)
	f.Add("algorithm=critical-greedy", refs)
	f.Add("budget_fraction=0.5", containerBody(f, w, cat))
	f.Add("catalog=paper&budget=10", []byte("MED"))
	f.Add("workflow=example&catalog=paper&budget=1e308", []byte(nil))
	f.Add("budget=100", []byte(`{"workflow":{"modules":[{"name":"a"`))
	f.Add("budget=nan&workflow=example&catalog=paper", []byte("\xef\xbb\xbf{}"))
	// Cache-path seeds: staircase grid boundaries (0, dyadic interior
	// points, 1), an off-grid fraction that must fall through, absolute
	// budgets far outside the grid, an out-of-range fraction, and a
	// cacheable pair under a non-default algorithm.
	f.Add("workflow=example&catalog=paper&budget_fraction=0", []byte{})
	f.Add("workflow=example&catalog=paper&budget_fraction=0.125", []byte{})
	f.Add("workflow=example&catalog=paper&budget_fraction=1", []byte{})
	f.Add("workflow=example&catalog=paper&budget_fraction=0.3", []byte{})
	f.Add("workflow=example&catalog=paper&budget=1e300", []byte{})
	f.Add("workflow=example&catalog=paper&budget=0", []byte{})
	f.Add("workflow=example&catalog=paper&budget_fraction=-0.5", []byte{})
	f.Add("workflow=example&catalog=paper&budget_fraction=0.5&algorithm=gain1", []byte{})
	// A result JSON cannot carry: the makespan overflows to +Inf.
	f.Add("", []byte(overflowBody))
	// An instance whose cost overflows to NaN.
	f.Add("", []byte(nanCostBody))
	// A negative transfer_slots in the envelope, which must answer 400.
	f.Add("", []byte(negativeSlotsBody))

	ch, uh := fuzzHandlers(f)
	f.Fuzz(func(t *testing.T, query string, body []byte) {
		// Set RawQuery directly: the server must survive any query
		// string the transport would deliver, including ones the
		// httptest target parser itself rejects.
		req := httptest.NewRequest(http.MethodPost, "/schedule", bytes.NewReader(body))
		req.URL.RawQuery = query
		rw := httptest.NewRecorder()
		ch.ServeHTTP(rw, req) // must not panic
		if rw.Code >= 500 {
			t.Fatalf("query %q body %q: status %d: %s", query, body, rw.Code, rw.Body.Bytes())
		}
		if rw.Code == http.StatusOK {
			var resp scheduleResponse
			if err := json.Unmarshal(rw.Body.Bytes(), &resp); err != nil {
				t.Fatalf("query %q body %q: 200 body does not decode: %v\n%q", query, body, err, rw.Body.Bytes())
			}
		}

		// Replay on the cache-disabled twin: whether the cached server
		// answered from a staircase or the direct path, status and body
		// must agree exactly (both serve deterministic schedulers over
		// identical snapshots).
		req = httptest.NewRequest(http.MethodPost, "/schedule", bytes.NewReader(body))
		req.URL.RawQuery = query
		rwU := httptest.NewRecorder()
		uh.ServeHTTP(rwU, req)
		if busy := http.StatusTooManyRequests; rw.Code == busy || rwU.Code == busy {
			return // backpressure depends on queue state, not the input
		}
		if rw.Code != rwU.Code {
			t.Fatalf("query %q body %q: cached status %d != uncached %d", query, body, rw.Code, rwU.Code)
		}
		if rw.Code == http.StatusOK && !bytes.Equal(rw.Body.Bytes(), rwU.Body.Bytes()) {
			t.Fatalf("query %q body %q: cached and uncached responses differ\ncached:   %s\nuncached: %s",
				query, body, rw.Body.Bytes(), rwU.Body.Bytes())
		}
	})
}
