package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"medcc/internal/encoding"
	"medcc/internal/gen"
	"medcc/internal/serve"
)

// writeTestCorpus emits a small generated corpus like cmd/wfgen does.
func writeTestCorpus(t *testing.T, path string, count int) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cw, err := encoding.NewCorpusWriter(f, false)
	if err != nil {
		t.Fatal(err)
	}
	var b gen.Builder
	sizes := gen.PaperProblemSizes()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < count; i++ {
		wf, cat, err := b.Instance(rng, sizes[i%len(sizes)])
		if err != nil {
			t.Fatal(err)
		}
		err = cw.WriteInstance(wf, cat, encoding.InstanceInfo{Seed: 7, Index: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestRunAgainstServer(t *testing.T) {
	corpus := filepath.Join(t.TempDir(), "corpus.medc")
	writeTestCorpus(t, corpus, 6)

	s, err := serve.New(serve.Config{Workers: 2, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var out bytes.Buffer
	err = run([]string{"-url", ts.URL, "-corpus", corpus, "-n", "40", "-c", "4", "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad report %q: %v", out.Bytes(), err)
	}
	if rep.Requests != 40 || rep.Bodies != 6 || rep.Clients != 4 {
		t.Errorf("report %+v", rep)
	}
	if rep.PerSecond <= 0 || rep.P50Ms <= 0 || rep.P99Ms < rep.P50Ms {
		t.Errorf("implausible latency stats: %+v", rep)
	}
}

func TestRunFlagErrors(t *testing.T) {
	if err := run(nil, &bytes.Buffer{}); err == nil {
		t.Error("run without -corpus succeeded")
	}
	if err := run([]string{"-corpus", "x.medc", "-n", "0"}, &bytes.Buffer{}); err == nil {
		t.Error("run with -n 0 succeeded")
	}
	if err := run([]string{"-corpus", "/nonexistent.medc"}, &bytes.Buffer{}); err == nil {
		t.Error("run with missing corpus succeeded")
	}
}

func TestRunServerError(t *testing.T) {
	corpus := filepath.Join(t.TempDir(), "corpus.medc")
	writeTestCorpus(t, corpus, 2)
	s, err := serve.New(serve.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	// budget_fraction 2 is rejected by the server: the run must fail.
	err = run([]string{"-url", ts.URL, "-corpus", corpus, "-n", "4", "-c", "1", "-budget", "2"}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("run against rejecting server succeeded")
	}
}

// TestRunRefsReportsResumes drives -refs traffic at uniform budgets. A
// first run installs the staircase; in the second, every request misses
// the grid and resumes from the staircase's trails, and the report
// (JSON and text) counts the resumes from /stats deltas.
func TestRunRefsReportsResumes(t *testing.T) {
	s, err := serve.New(serve.Config{Workers: 2, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	args := []string{"-url", ts.URL, "-refs", "-keys", "zipf", "-budget-dist", "uniform", "-n", "40", "-c", "2"}
	if err := run(args, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	// The build runs on a worker after the first miss was answered.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		var st struct {
			Staircases int `json:"staircases"`
		}
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Staircases == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("staircase never installed")
		}
	}
	var out bytes.Buffer
	if err := run(append(args, "-json", "-seed", "2"), &out); err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("bad report %q: %v", out.Bytes(), err)
	}
	if !rep.StatsOK || rep.CacheMisses != 40 || rep.CacheResumes != 40 || rep.CacheHits != 0 {
		t.Errorf("report %+v, want 40 misses, all resumed", rep)
	}
	out.Reset()
	if err := run(append(args, "-seed", "3"), &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte("0 hits / 40 misses / 40 resumes")) {
		t.Errorf("text report lacks the resume count:\n%s", out.Bytes())
	}
}
