package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"condensation/internal/stats"
)

// The on-disk condensation format: a fixed header followed by
// length-prefixed group encodings. This is the set H of the paper — the
// only state a condensation server needs to persist, and by construction
// the only state that may leave the trusted collection boundary.
const (
	condensationMagic   = 0x434e4453 // "CNDS"
	condensationVersion = 1
)

// WriteTo serializes the condensation. It implements io.WriterTo.
func (c *Condensation) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	write := func(v uint64) error {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		m, err := bw.Write(buf[:])
		n += int64(m)
		return err
	}
	if err := write(condensationMagic); err != nil {
		return n, err
	}
	for _, v := range []uint64{
		condensationVersion,
		uint64(c.dim),
		uint64(c.k),
		uint64(c.opts.Synthesis),
		uint64(c.opts.SplitAxis),
		uint64(c.opts.Leftover),
		uint64(len(c.groups)),
	} {
		if err := write(v); err != nil {
			return n, err
		}
	}
	for i, g := range c.groups {
		data, err := g.MarshalBinary()
		if err != nil {
			return n, fmt.Errorf("core: encoding group %d: %w", i, err)
		}
		if err := write(uint64(len(data))); err != nil {
			return n, err
		}
		m, err := bw.Write(data)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// maxGroupBytes bounds one group encoding read from an untrusted file.
const maxGroupBytes = 1 << 26

// groupEncodingLen is the length of stats.Group's binary encoding at
// dimension dim: a 20-byte header, Fs, and the upper triangle of Sc.
func groupEncodingLen(dim int) int { return 20 + 8*dim + 8*dim*(dim+1)/2 }

// ReadCondensation deserializes a condensation written by WriteTo.
func ReadCondensation(r io.Reader) (*Condensation, error) {
	br := bufio.NewReader(r)
	read := func() (uint64, error) {
		var buf [8]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf[:]), nil
	}
	magic, err := read()
	if err != nil {
		return nil, fmt.Errorf("core: reading condensation header: %w", err)
	}
	if magic != condensationMagic {
		return nil, errors.New("core: not a condensation file (bad magic)")
	}
	version, err := read()
	if err != nil {
		return nil, err
	}
	if version != condensationVersion {
		return nil, fmt.Errorf("core: unsupported condensation version %d", version)
	}
	fields := make([]uint64, 5)
	for i := range fields {
		if fields[i], err = read(); err != nil {
			return nil, err
		}
	}
	dim := int(fields[0])
	k := int(fields[1])
	opts := Options{
		Synthesis: Synthesis(fields[2]),
		SplitAxis: SplitAxis(fields[3]),
		Leftover:  Leftover(fields[4]),
	}
	if err := opts.validate(); err != nil {
		return nil, fmt.Errorf("core: condensation file: %w", err)
	}
	// Every group encoding must fit in maxGroupBytes, so a dimension whose
	// groups could not is refused even when the file holds no group yet.
	if dim < 1 || dim > 1<<20 || groupEncodingLen(dim) > maxGroupBytes {
		return nil, fmt.Errorf("core: condensation file has implausible dimension %d", dim)
	}
	if k < 1 {
		return nil, fmt.Errorf("core: condensation file has implausible k = %d", k)
	}
	count, err := read()
	if err != nil {
		return nil, err
	}
	if count > 1<<30 {
		return nil, fmt.Errorf("core: condensation file claims %d groups", count)
	}
	// The group count and sizes are untrusted: never pre-allocate from
	// them beyond a small hint, and bound each group's byte length well
	// below anything a real (Fs, Sc, n) encoding needs.
	capHint := count
	if capHint > 4096 {
		capHint = 4096
	}
	groups := make([]*stats.Group, 0, capHint)
	total := 0 // running record count; must stay representable
	for i := uint64(0); i < count; i++ {
		size, err := read()
		if err != nil {
			return nil, fmt.Errorf("core: reading group %d header: %w", i, err)
		}
		if size > maxGroupBytes {
			return nil, fmt.Errorf("core: group %d claims %d bytes", i, size)
		}
		data := make([]byte, size)
		if _, err := io.ReadFull(br, data); err != nil {
			return nil, fmt.Errorf("core: reading group %d: %w", i, err)
		}
		var g stats.Group
		if err := g.UnmarshalBinary(data); err != nil {
			return nil, fmt.Errorf("core: decoding group %d: %w", i, err)
		}
		if g.Dim() != dim {
			return nil, fmt.Errorf("core: group %d has dimension %d, file header says %d", i, g.Dim(), dim)
		}
		if g.N() > math.MaxInt-total {
			return nil, fmt.Errorf("core: group %d's %d records overflow the total count", i, g.N())
		}
		total += g.N()
		groups = append(groups, &g)
	}
	return newCondensation(dim, k, opts, groups), nil
}

// Labeled-container format: per-class condensations for a classification
// data set, as produced by Anonymize. Layout: magic, version, class count,
// then per class a label and a length-prefixed condensation stream.
const (
	classSetMagic   = 0x434e4448 // "CNDH"
	classSetVersion = 1
)

// WriteClassCondensations serializes per-class condensations (keyed by
// class label; -1 marks a regression condensation).
func WriteClassCondensations(w io.Writer, byClass map[int]*Condensation) (int64, error) {
	if len(byClass) == 0 {
		return 0, errors.New("core: no condensations to write")
	}
	labels := make([]int, 0, len(byClass))
	for l := range byClass {
		labels = append(labels, l)
	}
	sort.Ints(labels)

	bw := bufio.NewWriter(w)
	var n int64
	write := func(v uint64) error {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		m, err := bw.Write(buf[:])
		n += int64(m)
		return err
	}
	for _, v := range []uint64{classSetMagic, classSetVersion, uint64(len(labels))} {
		if err := write(v); err != nil {
			return n, err
		}
	}
	for _, label := range labels {
		cond := byClass[label]
		if cond == nil {
			return n, fmt.Errorf("core: nil condensation for class %d", label)
		}
		var body bytes.Buffer
		if _, err := cond.WriteTo(&body); err != nil {
			return n, fmt.Errorf("core: encoding class %d: %w", label, err)
		}
		if err := write(uint64(int64(label))); err != nil {
			return n, err
		}
		if err := write(uint64(body.Len())); err != nil {
			return n, err
		}
		m, err := bw.Write(body.Bytes())
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ReadClassCondensations reads a stream written by WriteClassCondensations.
func ReadClassCondensations(r io.Reader) (map[int]*Condensation, error) {
	br := bufio.NewReader(r)
	read := func() (uint64, error) {
		var buf [8]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf[:]), nil
	}
	magic, err := read()
	if err != nil {
		return nil, fmt.Errorf("core: reading class-set header: %w", err)
	}
	if magic != classSetMagic {
		return nil, errors.New("core: not a class-condensation file (bad magic)")
	}
	version, err := read()
	if err != nil {
		return nil, err
	}
	if version != classSetVersion {
		return nil, fmt.Errorf("core: unsupported class-set version %d", version)
	}
	count, err := read()
	if err != nil {
		return nil, err
	}
	if count > 1<<20 {
		return nil, fmt.Errorf("core: class-set claims %d classes", count)
	}
	out := make(map[int]*Condensation, count)
	for i := uint64(0); i < count; i++ {
		labelBits, err := read()
		if err != nil {
			return nil, fmt.Errorf("core: reading class %d label: %w", i, err)
		}
		label := int(int64(labelBits))
		size, err := read()
		if err != nil {
			return nil, err
		}
		if size > 1<<30 {
			return nil, fmt.Errorf("core: class %d claims %d bytes", label, size)
		}
		body := make([]byte, size)
		if _, err := io.ReadFull(br, body); err != nil {
			return nil, fmt.Errorf("core: reading class %d body: %w", label, err)
		}
		cond, err := ReadCondensation(bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("core: decoding class %d: %w", label, err)
		}
		if _, dup := out[label]; dup {
			return nil, fmt.Errorf("core: duplicate class %d", label)
		}
		out[label] = cond
	}
	return out, nil
}
