package core

import "fmt"

// IndexPrecision names the arithmetic of the dynamic routing index.
// Routing always runs in float64, so Float64 is its only value.
//
// Deprecated: kept so callers that pass WithIndexPrecision(Float64) still
// compile; it has no effect.
type IndexPrecision int

// Float64 is the only IndexPrecision.
//
// Deprecated: see IndexPrecision.
const Float64 IndexPrecision = 0

// WithIndexPrecision accepts Float64 only; NewCondenser rejects any other
// value.
//
// Deprecated: routing always runs in float64.
func WithIndexPrecision(p IndexPrecision) CondenserOption {
	return func(c *Condenser) { c.precision = p }
}

func (p IndexPrecision) validate() error {
	if p != Float64 {
		return fmt.Errorf("core: unknown index precision %d", int(p))
	}
	return nil
}
