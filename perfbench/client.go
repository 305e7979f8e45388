package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"image/jpeg"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// serverConn is the client's handle on a running server side.
type serverConn struct {
	ready serverReady
	enc   *json.Encoder
	dec   *json.Decoder
	// close ends the server's input and waits until it has exited.
	close func() error
}

// call sends one command and decodes its reply into reply.
func (s *serverConn) call(cmd string, reply any) error {
	if err := s.enc.Encode(command{Cmd: cmd}); err != nil {
		return fmt.Errorf("server %s: %w", cmd, err)
	}
	if err := s.dec.Decode(reply); err != nil {
		return fmt.Errorf("server %s reply: %w", cmd, err)
	}
	return nil
}

// startFunc starts a server side for a workload with its data under dir.
type startFunc func(workload, dir string) (*serverConn, error)

// startProcess runs the server side as a child process of this binary.
func startProcess(workload, dir string) (*serverConn, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "serve", workload, dir)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	exited := make(chan error, 1)
	var once sync.Once
	var waitErr error
	closeFn := func() error {
		once.Do(func() {
			stdin.Close()
			go func() { exited <- cmd.Wait() }()
			select {
			case waitErr = <-exited:
			case <-time.After(30 * time.Second):
				cmd.Process.Kill()
				<-exited
				waitErr = errors.New("server did not exit; killed")
			}
			os.RemoveAll(dir)
		})
		return waitErr
	}
	return connect(stdin, stdout, closeFn)
}

func connect(in io.Writer, out io.Reader, closeFn func() error) (*serverConn, error) {
	s := &serverConn{enc: json.NewEncoder(in), dec: json.NewDecoder(out), close: closeFn}
	if err := s.dec.Decode(&s.ready); err != nil {
		closeFn()
		return nil, fmt.Errorf("server start: %w", err)
	}
	return s, nil
}

// client drives the proxy over HTTP with at most conns connections, and
// records a "client" span around every call of a traced request.
type client struct {
	http    *http.Client
	rec     *recorder // nil: nothing is traced
	nextReq atomic.Uint64
}

func newClient(conns int, trace bool) *client {
	c := &client{http: &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			Proxy:               nil,
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}}
	if trace {
		c.rec = newRecorder(0)
	}
	return c
}

// do sends one request and reads the whole body into buf. traced asks for
// spans; it is ignored when the client does not trace.
func (c *client) do(method, url string, body []byte, buf *bytes.Buffer, traced bool, phase string) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	var s span
	if traced && c.rec != nil {
		s = span{ID: c.rec.newID(), Req: c.nextReq.Add(1), Name: "client", Phase: phase}
		req.Header.Set(traceHeader, strconv.FormatUint(s.Req, 10)+"/"+strconv.FormatUint(s.ID, 10))
		s.Start = time.Now().UnixNano()
		defer func() {
			s.End = time.Now().UnixNano()
			c.rec.add(s)
		}()
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// opResult is the outcome of one operation of a loop.
type opResult struct {
	lat    time.Duration
	failed bool
	traced bool
}

// loop runs a closed loop of conns workers. Each worker takes the next
// operation index and runs op(i, buf) while more(i, done, elapsed) allows;
// the indexes run are 0..n-1 for some n. op reports failure and whether the
// request was traced.
func loop(conns int, more func(i int, done int64, elapsed time.Duration) bool,
	op func(i int, buf *bytes.Buffer) (failed, traced bool)) ([]opResult, time.Duration) {
	var mu sync.Mutex
	var next int
	var done atomic.Int64
	take := func(start time.Time) (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !more(next, done.Load(), time.Since(start)) {
			return 0, false
		}
		next++
		return next - 1, true
	}
	results := make([][]opResult, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i, ok := take(start)
				if !ok {
					return
				}
				t := time.Now()
				failed, traced := op(i, &buf)
				results[w] = append(results[w], opResult{lat: time.Since(t), failed: failed, traced: traced})
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []opResult
	for _, r := range results {
		all = append(all, r...)
	}
	return all, elapsed
}

// forEach runs op over indexes [0, n) on conns workers.
func forEach(conns, n int, op func(i int, buf *bytes.Buffer) (failed, traced bool)) []opResult {
	res, _ := loop(conns, func(i int, _ int64, _ time.Duration) bool { return i < n }, op)
	return res
}

// checkJPEG reports whether b is a JPEG of the wanted dimensions, reading
// only its headers.
func checkJPEG(b []byte, wantW, wantH int) error {
	w, h, err := jpegDims(b)
	if err != nil {
		return err
	}
	if w != wantW || h != wantH {
		return fmt.Errorf("got %dx%d, want %dx%d", w, h, wantW, wantH)
	}
	return nil
}

// jpegDims reads a baseline or progressive JPEG's dimensions from its
// frame header, without decoding or allocating: the repeat-view loop
// checks every response and must cost the client as little as possible.
func jpegDims(b []byte) (w, h int, err error) {
	if len(b) < 4 || b[0] != 0xFF || b[1] != 0xD8 {
		return 0, 0, errors.New("not a JPEG: no SOI marker")
	}
	for i := 2; i+4 <= len(b); {
		if b[i] != 0xFF {
			return 0, 0, fmt.Errorf("bad marker at byte %d", i)
		}
		m := b[i+1]
		if m == 0xFF { // fill byte
			i++
			continue
		}
		n := int(b[i+2])<<8 | int(b[i+3])
		// SOF0..SOF15, except DHT (C4), JPG (C8) and DAC (CC).
		if m >= 0xC0 && m <= 0xCF && m != 0xC4 && m != 0xC8 && m != 0xCC {
			if n < 7 || i+4+5 > len(b) {
				return 0, 0, errors.New("truncated frame header")
			}
			return int(b[i+7])<<8 | int(b[i+8]), int(b[i+5])<<8 | int(b[i+6]), nil
		}
		if m == 0xD9 || m == 0xDA {
			break
		}
		i += 2 + n
	}
	return 0, 0, errors.New("no frame header")
}

// checkDecode fully decodes b with the standard library's decoder, which
// is independent of the codec under test, and checks its dimensions.
func checkDecode(b []byte, wantW, wantH int) error {
	im, err := jpeg.Decode(bytes.NewReader(b))
	if err != nil {
		return err
	}
	if sz := im.Bounds().Size(); sz.X != wantW || sz.Y != wantH {
		return fmt.Errorf("decoded %dx%d, want %dx%d", sz.X, sz.Y, wantW, wantH)
	}
	return nil
}

// uploadID parses a successful POST /upload response.
func uploadID(status int, body []byte) (string, error) {
	if status != http.StatusOK {
		return "", fmt.Errorf("upload: HTTP %d: %.200s", status, body)
	}
	var r struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &r); err != nil || r.ID == "" {
		return "", fmt.Errorf("upload: bad response %.200q", body)
	}
	return r.ID, nil
}

// workDir is where builds, run data and trace files go: the build
// directory the caller names, inside the checkout.
func workDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

func dataDir(n int) string {
	return filepath.Join(workDir(), fmt.Sprintf("data-%d-%d", os.Getpid(), n))
}
