package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"condensation/internal/core"
	"condensation/internal/mat"
)

// POST /v1/records is the ingest hot path, so its body is read and parsed
// here by a fixed-shape decoder instead of encoding/json. The body must be
// exactly
//
//	ws { ws "records" ws : ws [ rows ] ws } ws EOF
//	rows   = empty | row *( ws , ws row )
//	row    = [ ws ] | [ ws number *( ws , ws number ) ws ]
//	ws     = *( space | \t | \n | \r )
//
// with every number matching the RFC 8259 number grammar. A number is
// handed to strconv.ParseFloat(s, 64) — the call encoding/json makes — so
// accepted values are bit-identical to what encoding/json would produce.
// Unlike encoding/json, the decoder refuses null values (which
// encoding/json leaves as a fabricated 0), data after the object, and any
// key spelled other than "records" exactly once (case-folded, escaped or
// duplicated keys).
//
// Refusals keep one precedence: a syntax error anywhere is 400, then an
// empty batch 400, then a batch over the limit 413, then the first
// wrong-dimension record 400, then the first non-finite record 400, then
// the first record with a value beyond ±core.MaxRecordMagnitude 400. A
// body over the byte limit is 413 before any of them.

// recordsBodyLimit is the byte cap on a POST /v1/records body, derived from
// the batch limit: 64 bytes per value is roomy for any float64 as
// encoding/json writes it (at most 25 bytes) plus its separator and
// indentation, and 4096 bytes covers the envelope.
func recordsBodyLimit(maxBatch, dim int) int64 {
	const perValue, envelope = 64, 4096
	if dim > 0 && int64(maxBatch) > (math.MaxInt64-envelope)/perValue/int64(dim) {
		return math.MaxInt64
	}
	return int64(maxBatch)*int64(dim)*perValue + envelope
}

// readBody reads a request body of at most limit bytes into a buffer sized
// for it: exactly Content-Length when the client declared one, grown as
// needed otherwise. On failure it returns the HTTP status to answer with
// and the error to report: 413 for a body over the limit — before reading
// anything when Content-Length declares it — and 400 when reading fails.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, int, error) {
	if r.ContentLength > limit {
		return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", limit)
	}
	rd := http.MaxBytesReader(w, r.Body, limit)
	var body []byte
	var err error
	if r.ContentLength < 0 {
		body, err = io.ReadAll(rd)
	} else {
		body = make([]byte, r.ContentLength)
		_, err = io.ReadFull(rd, body)
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", limit)
	}
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("reading body: %w", err)
	}
	return body, 0, nil
}

// decodeRecords parses and validates a POST /v1/records body for an engine
// of dimension dim accepting at most maxBatch records per request. On
// success every record is a dim-wide window of one flat arena. On failure
// it returns the HTTP status to answer with and the error to report.
func decodeRecords(body []byte, dim, maxBatch int) ([]mat.Vector, int, error) {
	// Size the arena from an upper bound on the row count: every row opens
	// with '[' and the grammar admits exactly one other. Rows past the batch
	// limit are scanned but not stored — the request is refused anyway.
	rows := min(max(bytes.Count(body, []byte{'['})-1, 0), maxBatch)
	flat := make([]float64, rows*dim)
	records := make([]mat.Vector, rows)

	p := recordsParser{b: body}
	p.ws()
	p.expect('{')
	p.ws()
	p.key()
	p.ws()
	p.expect(':')
	p.ws()
	p.expect('[')
	p.ws()
	n := 0                  // rows scanned
	badRow, badLen := -1, 0 // first wrong-dimension row
	if !p.eat(']') {
		for p.err == nil {
			p.expect('[')
			p.ws()
			cols := 0
			if !p.eat(']') {
				for p.err == nil {
					v := p.number()
					if n < rows && cols < dim {
						flat[n*dim+cols] = v
					}
					cols++
					p.ws()
					if !p.eat(',') {
						p.expect(']')
						break
					}
					p.ws()
				}
			}
			if cols != dim && badRow < 0 {
				badRow, badLen = n, cols
			}
			n++
			p.ws()
			if !p.eat(',') {
				p.expect(']')
				break
			}
			p.ws()
		}
	}
	p.ws()
	p.expect('}')
	p.ws()
	if p.err == nil && p.i < len(p.b) {
		p.fail("data after the records object")
	}
	if p.err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("decoding body: %w", p.err)
	}

	if n == 0 {
		return nil, http.StatusBadRequest, errors.New("no records in request")
	}
	if n > maxBatch {
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d exceeds limit %d", n, maxBatch)
	}
	if badRow >= 0 {
		return nil, http.StatusBadRequest,
			fmt.Errorf("record %d has dimension %d, want %d", badRow, badLen, dim)
	}
	for i := range records {
		v := mat.Vector(flat[i*dim : (i+1)*dim : (i+1)*dim])
		// ParseFloat already refuses overflow, so this cannot fire on a
		// body that parsed; it stays as the last guard on outside input.
		if !v.IsFinite() {
			return nil, http.StatusBadRequest, fmt.Errorf("record %d has non-finite values", i)
		}
		records[i] = v
	}
	for i, v := range records {
		if err := core.CheckRecordMagnitude(v); err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("record %d: %w", i, err)
		}
	}
	return records, http.StatusOK, nil
}

// recordsParser scans a body left to right. The first error sticks: every
// later step is a no-op, so the caller checks err once at the end.
type recordsParser struct {
	b   []byte
	i   int
	err error
}

func (p *recordsParser) fail(msg string) {
	if p.err == nil {
		p.err = fmt.Errorf("%s at offset %d", msg, p.i)
	}
}

// ws skips JSON whitespace.
func (p *recordsParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c if it is next and reports whether it did.
func (p *recordsParser) eat(c byte) bool {
	if p.err == nil && p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// expect consumes c or records a syntax error.
func (p *recordsParser) expect(c byte) {
	if p.eat(c) || p.err != nil {
		return
	}
	if p.i == len(p.b) {
		p.fail(fmt.Sprintf("unexpected end of body, want %q", c))
		return
	}
	p.fail(fmt.Sprintf("invalid character %q, want %q", p.b[p.i], c))
}

// key consumes the one member name the body may carry, spelled exactly.
func (p *recordsParser) key() {
	const name = `"records"`
	if p.err != nil {
		return
	}
	if !bytes.HasPrefix(p.b[p.i:], []byte(name)) {
		p.fail(`want key "records"`)
		return
	}
	p.i += len(name)
}

// number consumes one RFC 8259 number and parses it as a float64.
func (p *recordsParser) number() float64 {
	if p.err != nil {
		return 0
	}
	b, start := p.b, p.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		p.i = i
		p.fail("want a number")
		return 0
	}
	if i < len(b) && b[i] == '.' {
		i++
		j := digits(b, i)
		if j == i {
			p.i = i
			p.fail("want a digit after the decimal point")
			return 0
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			p.i = i
			p.fail("want a digit in the exponent")
			return 0
		}
		i = j
	}
	p.i = i
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		p.i = start
		p.fail(fmt.Sprintf("number %s does not fit a float64", b[start:i]))
		return 0
	}
	return v
}

// digits returns the index just past the run of ASCII digits at b[i:].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}
