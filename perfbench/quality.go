package main

import (
	"bytes"
	"fmt"
	"strconv"

	"p3"
	"p3/internal/jpegx"
	"p3/internal/psp"
	"p3/internal/vision"
)

// reconFloorDB is the lowest PSNR a sampled reconstruction may have against
// the same rendition of the unsplit original. Reconstructions here measure
// well above it; a broken Eq. (2) join or a mis-calibrated pipeline falls
// far below.
const reconFloorDB = 30

// reconSample is how many reconstructions recon_psnr_db averages.
const reconSample = 12

func psnrBytes(a, b []byte) (float64, error) {
	ia, err := jpegx.DecodeToPlanar(bytes.NewReader(a))
	if err != nil {
		return 0, err
	}
	ib, err := jpegx.DecodeToPlanar(bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	return vision.PSNR(ia, ib)
}

// reconTarget is one reconstruction to score: the bytes the proxy served
// for a rendition of an original.
type reconTarget struct {
	orig   []byte
	v      variant
	served []byte
}

// reconPSNR scores each reconstruction against the same rendition of its
// unsplit original, served by a PSP identical to the stack's. Originals
// ingest on conns workers.
func reconPSNR(targets []reconTarget, conns int) ([]float64, error) {
	ref := psp.NewServer(psp.FacebookLike())
	out := make([]float64, len(targets))
	errs := make([]error, len(targets))
	forEach(conns, len(targets), func(i int, _ *bytes.Buffer) (bool, bool) {
		t := targets[i]
		id, err := ref.Upload(t.orig)
		if err != nil {
			errs[i] = fmt.Errorf("reference upload: %w", err)
			return true, false
		}
		crop, w, h := "", "", ""
		if c := t.v.crop; c != nil {
			crop = fmt.Sprintf("%d,%d,%d,%d", c.X, c.Y, c.W, c.H)
		}
		if t.v.size == "" {
			w, h = strconv.Itoa(t.v.w), strconv.Itoa(t.v.h)
		}
		want, err := ref.Photo(id, t.v.size, crop, w, h)
		if err != nil {
			errs[i] = fmt.Errorf("reference rendition: %w", err)
			return true, false
		}
		out[i], errs[i] = psnrBytes(t.served, want)
		return errs[i] != nil, false
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// publicPSNR splits each original the way the proxy does (default codec
// options; the key does not change the public part) and scores the public
// part against the original: the lower, the less the PSP sees.
func publicPSNR(origs [][]byte, conns int) ([]float64, error) {
	key, err := p3.NewKey()
	if err != nil {
		return nil, err
	}
	codec, err := p3.New(key)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(origs))
	errs := make([]error, len(origs))
	forEach(conns, len(origs), func(i int, _ *bytes.Buffer) (bool, bool) {
		split, err := codec.SplitBytes(origs[i])
		if err == nil {
			out[i], err = psnrBytes(split.PublicJPEG, origs[i])
		}
		errs[i] = err
		return err != nil, false
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
