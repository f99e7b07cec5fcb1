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
	"condensation/internal/par"
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
// with every number matching the RFC 8259 number grammar. Each number is
// converted in the pass that checks its grammar (see atof.go), falling
// back to strconv.ParseFloat(s, 64) — the call encoding/json makes — for
// the rare number that pass cannot convert, so accepted values are
// bit-identical to what encoding/json would produce.
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

// decodeRangeMin is the fewest body bytes a decode range is given, so a
// body shorter than twice this, every 1-record POST among them, is parsed
// on the calling goroutine. Waking a second core costs tens of
// microseconds: on a 2-core Xeon, two ranges took 1.13 times one range's
// time for a 20 KB body of dim-8 records, 0.84 times at 30 KB, 0.71 at
// 59 KB and 0.70 at 157 KB (1024 records).
const decodeRangeMin = 16 << 10

// decodeMaxRanges caps the ranges a body is split into, whatever the core
// count, so the range bookkeeping is fixed-size arrays and a split decode
// allocates the same for any range count.
const decodeMaxRanges = 8

// decodeRecords parses and validates a POST /v1/records body for an engine
// of dimension dim accepting at most maxBatch records per request. On
// success every record is a dim-wide window of one flat arena. On failure
// it returns the HTTP status to answer with and the error to report.
func decodeRecords(body []byte, dim, maxBatch int) ([]mat.Vector, int, error) {
	return decodeRecordsIn(body, dim, maxBatch, 0)
}

// decodeRecordsIn is decodeRecords over at most ranges contiguous row
// ranges, parsed concurrently; ranges < 1 takes one range per
// decodeRangeMin bytes, up to one per core. A forced count ignores
// decodeRangeMin, so tests can split small bodies.
//
// Only an accepted body is answered from several ranges. If any range
// fails — a syntax error, a wrong-dimension, non-finite or oversized
// record, or a parse that does not end exactly where the next range
// starts — the body is decoded again as one range, and that decode's
// status and error are returned. So every refusal, and the precedence
// among them, is the one-range decode's.
func decodeRecordsIn(body []byte, dim, maxBatch, ranges int) ([]mat.Vector, int, error) {
	if ranges < 1 {
		ranges = min(par.Workers(0), len(body)/decodeRangeMin)
	}
	ranges = max(min(ranges, decodeMaxRanges), 1)

	// One pass over the body's '[' bytes sizes the arena and places the
	// ranges. Every row opens with '[' and the grammar admits exactly one
	// other, the array's, which comes first; so in a body that parses, the
	// '[' count less one is the row count, and the rows before a '[' are
	// the '[' bytes before it less one. Range r starts at the first '['
	// past the array's at or after byte r·len/ranges.
	var start, before [decodeMaxRanges + 1]int
	opens, placed := 0, 1 // '[' bytes seen, ranges placed
	for i := 0; ; i++ {
		j := bytes.IndexByte(body[i:], '[')
		if j < 0 {
			break
		}
		i += j
		if opens > 0 && placed < ranges && i >= placed*len(body)/ranges {
			start[placed], before[placed] = i, opens-1
			placed++
		}
		opens++
	}
	// Rows past the batch limit are scanned but not stored — the request
	// is refused anyway, by the one-range decode.
	rows := max(opens-1, 0)
	if rows > maxBatch {
		rows, placed = maxBatch, 1
	}
	before[placed] = rows
	flat := make([]float64, rows*dim)
	records := make([]mat.Vector, rows)

	if placed > 1 {
		err := par.RunChunks(placed, placed, func(lo, hi int) error {
			for r := lo; r < hi; r++ {
				stop := -1
				if r+1 < placed {
					stop = start[r+1]
				}
				first, last := before[r], before[r+1]
				if res := decodeRange(body, start[r], stop, flat[first*dim:last*dim], records[first:last], dim, first); !res.clean() {
					return errRangeRefused
				}
			}
			return nil
		})
		if err == nil {
			// A clean range that ends at the next one's start parsed
			// exactly the rows its '[' bytes opened, so the ranges filled
			// every record.
			return records, http.StatusOK, nil
		}
	}
	// One range, from the start: the whole decode of a small body, and the
	// answer for a split body that a range refused.
	res := decodeRange(body, 0, -1, flat, records, dim, 0)
	if status, err := res.refusal(maxBatch, dim); err != nil {
		return nil, status, err
	}
	return records, http.StatusOK, nil
}

// errRangeRefused reports that a range of a split decode found something
// to refuse; the one-range decode then says what.
var errRangeRefused = errors.New("a decode range found something to refuse")

// rangeResult is what decoding one range of a body found. Row indices
// count from the body's first row.
type rangeResult struct {
	n              int   // rows scanned
	err            error // the first syntax error
	badRow, badLen int   // the first wrong-dimension row and its width; badRow is -1 if none
	nonFinite      int   // the first record with a non-finite value, or -1
	bigRow         int   // the first record with a value beyond ±core.MaxRecordMagnitude, or -1
	bigErr         error // core.CheckRecordMagnitude's error for bigRow
}

// clean reports whether the range found nothing to refuse.
func (r *rangeResult) clean() bool {
	return r.err == nil && r.badRow < 0 && r.nonFinite < 0 && r.bigRow < 0
}

// refusal returns the status and error a one-range decode's findings
// earn, in the precedence the package comment gives, or 200 and nil.
func (r *rangeResult) refusal(maxBatch, dim int) (int, error) {
	switch {
	case r.err != nil:
		return http.StatusBadRequest, fmt.Errorf("decoding body: %w", r.err)
	case r.n == 0:
		return http.StatusBadRequest, errors.New("no records in request")
	case r.n > maxBatch:
		return http.StatusRequestEntityTooLarge, fmt.Errorf("batch of %d exceeds limit %d", r.n, maxBatch)
	case r.badRow >= 0:
		return http.StatusBadRequest, fmt.Errorf("record %d has dimension %d, want %d", r.badRow, r.badLen, dim)
	case r.nonFinite >= 0:
		// number already refuses overflow, so this cannot fire on a body
		// that parsed; it stays as the last guard on outside input.
		return http.StatusBadRequest, fmt.Errorf("record %d has non-finite values", r.nonFinite)
	case r.bigRow >= 0:
		return http.StatusBadRequest, fmt.Errorf("record %d: %w", r.bigRow, r.bigErr)
	}
	return http.StatusOK, nil
}

// decodeRange parses the rows of body from byte start, storing row i of
// the range in the i-th dim-wide window of flat and in records[i] while
// records has room; row0 is the body index of the range's first row. The
// range at start 0 also parses the text before the first row. stop is
// the next range's start, where the parse must end, just past a row's
// separator; the last range has stop -1 and parses the closing "]}" and
// the end of the body. This is the one row parser: a one-range decode is
// a single call with start 0 and stop -1.
func decodeRange(body []byte, start, stop int, flat []float64, records []mat.Vector, dim, row0 int) rangeResult {
	p := recordsParser{b: body, i: start}
	if start == 0 {
		p.ws()
		p.expect('{')
		p.ws()
		p.key()
		p.ws()
		p.expect(':')
		p.ws()
		p.expect('[')
		p.ws()
	}
	res := rangeResult{badRow: -1, nonFinite: -1, bigRow: -1}
	closed := p.eat(']')
	for !closed && p.err == nil && p.i != stop {
		p.expect('[')
		p.ws()
		cols := 0
		if !p.eat(']') {
			for p.err == nil {
				v := p.number()
				if res.n < len(records) && cols < dim {
					flat[res.n*dim+cols] = v
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
		if cols != dim && res.badRow < 0 {
			res.badRow, res.badLen = row0+res.n, cols
		}
		res.n++
		p.ws()
		if closed = !p.eat(','); closed {
			p.expect(']')
		} else {
			p.ws()
		}
	}
	if stop < 0 {
		p.ws()
		p.expect('}')
		p.ws()
		if p.err == nil && p.i < len(p.b) {
			p.fail("data after the records object")
		}
	} else if closed {
		p.fail("the records array closes before the next range")
	}
	res.err = p.err
	if res.err != nil || res.badRow >= 0 || res.n > len(records) {
		return res
	}
	for i := range res.n {
		v := mat.Vector(flat[i*dim : (i+1)*dim : (i+1)*dim])
		records[i] = v
		if res.nonFinite < 0 && !v.IsFinite() {
			res.nonFinite = row0 + i
		}
		if res.bigRow < 0 {
			if err := core.CheckRecordMagnitude(v); err != nil {
				res.bigRow, res.bigErr = row0+i, err
			}
		}
	}
	return res
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

// number consumes one RFC 8259 number and converts it to a float64 in
// the same pass. While it checks the digits it appends them to a decimal
// mantissa — zeros before the first significant digit only move the
// power of ten — and decimalToFloat converts mantissa and power. A
// mantissa of more than maxMantDigits significant digits is read again by
// longMantissa, which keeps the first maxMantDigits; a truncated mantissa,
// or a pair decimalToFloat cannot convert, is handed to
// strconv.ParseFloat(s, 64), the call encoding/json makes. So every
// accepted value is bit-identical to what encoding/json would produce,
// and a value beyond float64 is refused.
func (p *recordsParser) number() float64 {
	if p.err != nil {
		return 0
	}
	b, start := p.b, p.i
	i := start
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	mant := i
	// man takes every significant digit and nd counts them; past
	// maxMantDigits man has wrapped, and longMantissa redoes it.
	var man uint64
	nd, exp10 := 0, 0
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i, man = appendDigits(b, i, 0)
		nd = i - mant
	default:
		p.i = i
		p.fail("want a number")
		return 0
	}
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		if nd == 0 {
			for i < len(b) && b[i] == '0' {
				i++
			}
		}
		sig := i
		i, man = appendDigits(b, i, man)
		if i == frac {
			p.i = i
			p.fail("want a digit after the decimal point")
			return 0
		}
		nd += i - sig
		exp10 = frac - i
	}
	mantEnd := i
	e := 0 // the explicit exponent
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		j := i
		for ; i < len(b); i++ {
			c := b[i] - '0'
			if c > 9 {
				break
			}
			if e < 10000 { // strconv's cap
				e = e*10 + int(c)
			}
		}
		if i == j {
			p.i = i
			p.fail("want a digit in the exponent")
			return 0
		}
		if eneg {
			e = -e
		}
	}
	p.i = i
	trunc := false
	if nd > maxMantDigits {
		man, exp10, trunc = longMantissa(b[mant:mantEnd])
	}
	if !trunc {
		if v, ok := decimalToFloat(man, exp10+e, neg); ok {
			return v
		}
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		p.i = start
		p.fail(fmt.Sprintf("number %s does not fit a float64", b[start:i]))
		return 0
	}
	return v
}
