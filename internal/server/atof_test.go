package server

import (
	"encoding/json"
	"math"
	"math/big"
	"strconv"
	"strings"
	"testing"

	"condensation/internal/rng"
)

// parseNumber converts token s as the ingest decoder does, refusing any
// text left after the number.
func parseNumber(s string) (float64, error) {
	p := recordsParser{b: []byte(s)}
	v := p.number()
	if p.err == nil && p.i != len(s) {
		p.fail("data after the number")
	}
	return v, p.err
}

// checkNumber compares the decoder's conversion of a JSON number token
// with strconv.ParseFloat's, the call encoding/json makes: the same bits,
// or, where strconv reports the value out of range, the decoder's refusal.
// Every message names the token, so it does not mark itself a helper,
// which would cost more than the comparison.
func checkNumber(t *testing.T, s string) {
	got, err := parseNumber(s)
	want, werr := strconv.ParseFloat(s, 64)
	if werr != nil {
		if err == nil || !strings.Contains(err.Error(), "does not fit a float64") {
			t.Fatalf("%q: got %v, %v; strconv refuses it: %v", s, got, err, werr)
		}
		return
	}
	if err != nil {
		t.Fatalf("%q: %v; strconv gives %v", s, err, want)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%q: got %v (%#x), strconv %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestParseNumberMatchesStrconv runs a deterministic corpus through both
// conversions. It covers every path: Clinger's exact one, Eisel–Lemire at
// every row of the powers-of-ten table, and each fallback (a truncated
// mantissa, a subnormal, an exponent beyond the table, an overflow, a
// halfway case Eisel–Lemire cannot decide).
func TestParseNumberMatchesStrconv(t *testing.T) {
	for _, s := range []string{
		"0", "-0", "0.0", "-0.0", "0e5", "-0E-5", "0e99999", "0.000e-999",
		"1", "-1", "1.5", "0.1", "0.000123", "123456789012345678", "1e22", "1e23",
		"9007199254740992", "9007199254740993", "9007199254740995", "-9007199254740993",
		"18014398509481987", "1e-400", "-1e-400", "123e-400", "1e400", "-5e400", "1e999",
		"1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
		"4.9406564584124654e-324", "2.4703282292062327e-324", "2.4703282292062328e-324",
		"2.2250738585072011e-308", "2.2250738585072014e-308",
		"1e100005", "1e-100005", "0." + strings.Repeat("0", 9990) + "1e10005",
		"1234567890123456789", "12345678901234567890", "1234567890123456789012345",
		"1234567890123456789000000", "1234567890123456789.000000", "1234567890123456789000001",
		"0.1000000000000000055511151231257827021181583404541015625",
	} {
		checkNumber(t, s)
	}

	r := rng.New(27)
	digits := func(n int) string {
		var sb strings.Builder
		sb.WriteByte(byte('1' + r.IntN(9)))
		for i := 1; i < n; i++ {
			sb.WriteByte(byte('0' + r.IntN(10)))
		}
		return sb.String()
	}
	// exp returns an exponent suffix that puts a 19-digit mantissa in the
	// normal range, across most of the table. Beyond it strconv.ParseFloat
	// takes its slow path, so those exponents are sampled more sparsely,
	// below.
	exp := func() string {
		return "e" + strconv.Itoa(r.IntN(600)-300)
	}
	for i := 0; i < 100_000; i++ {
		// Any finite float64, then one of normal magnitude the way
		// harness values look, each in shortest 'g' form and with 'e' and
		// 'f' at every precision up to 25 digits.
		x := math.Float64frombits(r.Uint64())
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		y := 10 * r.Norm()
		checkNumber(t, strconv.FormatFloat(x, 'g', -1, 64))
		checkNumber(t, strconv.FormatFloat(y, 'g', -1, 64))
		prec := int(r.Uint64() % 26)
		checkNumber(t, strconv.FormatFloat(x, 'e', prec, 64))
		checkNumber(t, strconv.FormatFloat(y, 'e', prec, 64))
		checkNumber(t, strconv.FormatFloat(y, 'f', prec, 64))
		if math.Abs(x) < 1e30 {
			checkNumber(t, strconv.FormatFloat(x, 'f', prec, 64))
		}

		// Mantissas of 19, 20 and 25 digits, and 19 digits followed by
		// zeros, before or after the point, at exponents across the table.
		for _, n := range []int{19, 20, 25} {
			checkNumber(t, digits(n)+exp())
		}
		d := digits(19)
		zeros := strings.Repeat("0", 1+r.IntN(8))
		checkNumber(t, d+zeros+exp())
		checkNumber(t, d+"."+zeros+exp())
		checkNumber(t, d[:1]+"."+d[1:]+zeros+exp())
		checkNumber(t, "-0.0"+d+zeros+exp())

		// Short decimals, the exact path's inputs.
		checkNumber(t, digits(1+r.IntN(15))+"e"+strconv.Itoa(r.IntN(45)-22))

		// Subnormals, and exponents past the table's rows and past
		// float64's range, all of which fall back.
		if i%16 == 0 {
			sub := math.Float64frombits(r.Uint64() % (1 << 52))
			checkNumber(t, strconv.FormatFloat(sub, 'g', -1, 64))
			checkNumber(t, strconv.FormatFloat(sub, 'e', 20, 64))
			checkNumber(t, digits(1+r.IntN(25))+"e"+strconv.Itoa(r.IntN(800)-400))
		}

		// A value exactly halfway between two adjacent float64s: an odd
		// multiple of half a unit in the last place, as an integer of at
		// most 19 digits (2^53+1 = 9007199254740993 is the first), and
		// the same scaled down by 2^-s, written out exactly.
		m := 1<<52 | r.Uint64()%(1<<52)
		half := (2*m + 1) << r.IntN(10)
		checkNumber(t, strconv.FormatUint(half, 10))
		scaled := new(big.Rat).SetFrac(new(big.Int).SetUint64(2*m+1), new(big.Int).Lsh(big.NewInt(1), uint(54+r.IntN(20))))
		checkNumber(t, scaled.FloatString(80))
	}

	// Every row of the table, with mantissas short and long.
	for e := pow10MinExp10 - 2; e <= pow10MaxExp10+2; e++ {
		for i := 0; i < 50; i++ {
			checkNumber(t, digits(1+r.IntN(19))+"e"+strconv.Itoa(e))
		}
	}
}

// FuzzParseNumber checks the conversion of any token against
// strconv.ParseFloat: a valid JSON number converts to the same bits or,
// beyond float64, is refused; anything else is refused.
func FuzzParseNumber(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "1.5", "-12.345678901234567", "1e-7", "9007199254740993",
		"1234567890123456789012345", "2.4703282292062328e-324", "1e999", "0e99999",
		"00", "1.", ".5", "+1", "1e", "1e+", "-", "0x10", "1_0", "Inf", "1.5e3.2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		number := s != "" && (s[0] == '-' || '0' <= s[0] && s[0] <= '9') &&
			strings.TrimSpace(s) == s && json.Valid([]byte(s))
		if !number {
			if v, err := parseNumber(s); err == nil {
				t.Fatalf("accepted %q as %v, not a JSON number", s, v)
			}
			return
		}
		checkNumber(t, s)
	})
}

// TestPow10TableRows pins three rows of the powers-of-ten table, built at
// init, to strconv's: the first, 1e43, and the last.
func TestPow10TableRows(t *testing.T) {
	for _, tc := range []struct {
		exp10  int
		lo, hi uint64
	}{
		{-348, 0x1732C869CD60E453, 0xFA8FD5A0081C0288},
		{43, 0x6D9CCD05D0000000, 0xE596B7B0C643C719},
		{347, 0x4B7195F2D2D1A9FB, 0xD13EB46469447567},
	} {
		if row := pow10Table[tc.exp10-pow10MinExp10]; row != [2]uint64{tc.lo, tc.hi} {
			t.Errorf("1e%d row = {%#x, %#x}, want {%#x, %#x}", tc.exp10, row[0], row[1], tc.lo, tc.hi)
		}
	}
}
