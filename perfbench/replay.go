package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"p3"
)

// The codec, jpegx and imaging layers run inside the proxy's request path,
// where the benchmark cannot wrap them without changing the program. The
// traced run therefore replays them single-threaded, after the timed phase,
// on a sample of the workload's own inputs, through the root API only:
// internal refactors of the download pipeline leave the replay valid.

// replaySample is how many (original, rendition) pairs the replay runs.
const replaySample = 8

// replayTarget is one original with a rendition of it the PSP serves.
type replayTarget struct {
	orig []byte
	id   string // PSP photo id of the original's public part
	v    variant
}

// replayStats holds one sample per target and layer operation.
type replayStats struct {
	split, join, decode, encode, op []time.Duration
	splitAlloc, joinAlloc           []float64 // bytes
}

// pspTransform is the PSP's operator chain for a rendition of the given
// size: psp.FacebookLike's Lanczos resize and unsharp mask, as a recipient
// calibrates it.
func pspTransform(w, h int) p3.Transform {
	return p3.Resize(w, h, p3.FilterLanczos).Then(p3.Sharpen(1, 0.5))
}

// measure runs f and returns its wall time and the bytes it allocated.
func measure(f func() error) (time.Duration, float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := f()
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	return d, float64(after.TotalAlloc - before.TotalAlloc), err
}

func replay(pspURL string, targets []replayTarget) (*replayStats, error) {
	key, err := p3.NewKey()
	if err != nil {
		return nil, err
	}
	codec, err := p3.New(key)
	if err != nil {
		return nil, err
	}
	photos := p3.NewHTTPPhotoService(pspURL)
	var st replayStats
	for _, t := range targets {
		// The rendition of the public part the PSP serves, which Eq. (2)
		// joins with the secret part.
		served, err := photos.FetchPhoto(context.Background(), t.id, p3.PhotoVariant{Size: t.v.size, W: t.v.w, H: t.v.h})
		if err != nil {
			return nil, fmt.Errorf("replay fetch: %w", err)
		}
		var split *p3.SplitResult
		d, alloc, err := measure(func() (err error) {
			split, err = codec.SplitBytes(t.orig)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("replay split: %w", err)
		}
		st.split, st.splitAlloc = append(st.split, d), append(st.splitAlloc, alloc)

		tr := pspTransform(t.v.wantW, t.v.wantH)
		var joined *p3.Image
		d, alloc, err = measure(func() (err error) {
			joined, err = codec.JoinProcessedBytes(served, split.SecretBlob, tr)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("replay join: %w", err)
		}
		st.join, st.joinAlloc = append(st.join, d), append(st.joinAlloc, alloc)

		var decoded *p3.Image
		d, _, err = measure(func() (err error) {
			decoded, err = p3.DecodeImage(bytes.NewReader(t.orig))
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("replay decode: %w", err)
		}
		st.decode = append(st.decode, d)

		d, _, _ = measure(func() error {
			tr.Apply(decoded)
			return nil
		})
		st.op = append(st.op, d)

		d, _, err = measure(func() error {
			var buf bytes.Buffer
			return joined.EncodeJPEG(&buf, 95)
		})
		if err != nil {
			return nil, fmt.Errorf("replay encode: %w", err)
		}
		st.encode = append(st.encode, d)
	}
	return &st, nil
}
