package main

// The two targets a workload can drive: an in-process serve.Server, and
// a real cmd/pipeserve subprocess over loopback HTTP. Both are reached
// only through their public surface.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"pipefut/internal/serve"
)

// response is what a request returned, kept for the output checks.
type response struct {
	cut     serve.Cut // mutation: versions produced; DAG: cut observed
	version uint64    // contains: the owning shard's version observed
	ok      bool      // contains: the answer
	count   int       // DAG: result cardinality
	keys    []int     // DAG want=keys: result contents
	err     error
}

type target interface {
	do(r *request) response
	length() (int, error)
	contents() ([]int, serve.Cut, error)
	metrics() (serve.Metrics, error)
	// pid is the server process for CPU and RSS accounting; 0 = this one.
	pid() int
	close() error
}

// ---- in-process ----------------------------------------------------------

type inprocTarget struct{ s *serve.Server }

func baseConfig() serve.Config {
	return serve.Config{Backend: "treap", Shards: shards, Universe: universe}
}

func openInproc(cfg serve.Config) (*inprocTarget, error) {
	s, err := serve.Open(cfg)
	if err != nil {
		return nil, err
	}
	return &inprocTarget{s: s}, nil
}

func (t *inprocTarget) do(r *request) response {
	var resp response
	switch r.kind {
	case opUnion:
		resp.cut, resp.err = t.s.Apply(serve.OpUnion, r.keys)
	case opDifference:
		resp.cut, resp.err = t.s.Apply(serve.OpDifference, r.keys)
	case opContains:
		resp.ok, resp.version, resp.err = t.s.Contains(r.key)
	case opDAG:
		var res serve.DAGResult
		res, resp.err = t.s.EvalDAG(*r.dag)
		resp.cut, resp.count, resp.keys = res.Cut, res.Count, res.Keys
	}
	return resp
}

func (t *inprocTarget) length() (int, error) {
	n, _, err := t.s.Len()
	return n, err
}

func (t *inprocTarget) contents() ([]int, serve.Cut, error) { return t.s.Keys() }
func (t *inprocTarget) metrics() (serve.Metrics, error)     { return t.s.Metrics(), nil }
func (t *inprocTarget) pid() int                            { return 0 }
func (t *inprocTarget) close() error                        { t.s.Close(); return nil }

// ---- pipeserve subprocess over HTTP ---------------------------------------

type httpTarget struct {
	base   string
	client *http.Client
	cmd    *exec.Cmd
	stderr bytes.Buffer
}

// buildPipeserve compiles cmd/pipeserve from the checkout's source into
// the build directory and returns the binary's path.
func buildPipeserve(root string) (string, error) {
	bin := filepath.Join(buildDir(root), "pipeserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/pipeserve")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/pipeserve: %v\n%s", err, out)
	}
	return bin, nil
}

// buildDir is where the benchmark keeps what it builds and writes while
// running; .gitignore names it.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// startPipeserve starts the binary on a free loopback port with conns
// keep-alive client connections and waits until it answers.
func startPipeserve(bin string, conns int, extraArgs ...string) (*httpTarget, error) {
	// Reserve a free port by binding and releasing it; pipeserve does not
	// report the port it bound, so ":0" cannot be passed through.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	t := &httpTarget{base: "http://" + addr}
	args := append([]string{"-addr", addr, "-shards", strconv.Itoa(shards), "-universe", strconv.Itoa(universe)}, extraArgs...)
	t.cmd = exec.Command(bin, args...)
	t.cmd.Stderr = &t.stderr
	if err := t.cmd.Start(); err != nil {
		return nil, err
	}
	t.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns,
	}}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := t.metrics(); err == nil {
			return t, nil
		}
		if time.Now().After(deadline) {
			t.close()
			return nil, fmt.Errorf("pipeserve did not answer on %s within 10s:\n%s", addr, t.stderr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// post sends one pre-encoded body and decodes a 200 reply into out.
func (t *httpTarget) post(path string, body []byte, out any) error {
	resp, err := t.client.Post(t.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return decodeReply(resp, out)
}

func (t *httpTarget) get(path string, out any) error {
	resp, err := t.client.Get(t.base + path)
	if err != nil {
		return err
	}
	return decodeReply(resp, out)
}

// errStatus is a non-200 reply; the shed probe matches on its code.
type errStatus struct {
	code int
	body string
}

func (e errStatus) Error() string { return fmt.Sprintf("http %d: %s", e.code, e.body) }

func decodeReply(resp *http.Response, out any) error {
	b, err := io.ReadAll(resp.Body) // to EOF, so the connection is reused
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return errStatus{resp.StatusCode, string(bytes.TrimSpace(b))}
	}
	return json.Unmarshal(b, out)
}

func (t *httpTarget) do(r *request) response {
	body := r.body
	if body == nil { // set-up requests are not pre-encoded
		var v any
		switch r.kind {
		case opUnion:
			v = serve.OpRequest{Op: "union", Keys: r.keys}
		case opDifference:
			v = serve.OpRequest{Op: "difference", Keys: r.keys}
		case opContains:
			v = serve.OpRequest{Op: "contains", Key: r.key}
		case opDAG:
			v = r.dag
		}
		var err error
		if body, err = json.Marshal(v); err != nil {
			return response{err: err}
		}
	}
	var resp response
	if r.kind == opDAG {
		var out serve.DAGResponse
		resp.err = t.post("/dag", body, &out)
		resp.cut, resp.count, resp.keys = out.Versions, out.Count, out.Keys
		return resp
	}
	var out serve.OpResponse
	resp.err = t.post("/op", body, &out)
	resp.cut, resp.version = out.Versions, out.Version
	if out.Contains != nil {
		resp.ok = *out.Contains
	}
	return resp
}

func (t *httpTarget) length() (int, error) {
	var out serve.OpResponse
	if err := t.post("/op", []byte(`{"op":"len"}`), &out); err != nil {
		return 0, err
	}
	if out.Len == nil {
		return 0, errors.New("len reply without len")
	}
	return *out.Len, nil
}

func (t *httpTarget) contents() ([]int, serve.Cut, error) {
	var out struct {
		Versions serve.Cut `json:"versions"`
		Keys     []int     `json:"keys"`
	}
	err := t.get("/keys", &out)
	return out.Keys, out.Versions, err
}

func (t *httpTarget) metrics() (serve.Metrics, error) {
	var m serve.Metrics
	err := t.get("/metrics", &m)
	return m, err
}

func (t *httpTarget) pid() int { return t.cmd.Process.Pid }

// close asks pipeserve to drain (SIGTERM), waits for it to exit, and
// kills it if it has not within 10 s.
func (t *httpTarget) close() error {
	t.client.CloseIdleConnections()
	if err := t.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- t.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.cmd.Process.Kill()
		<-done
		return errors.New("pipeserve ignored SIGTERM for 10s; killed")
	}
}
