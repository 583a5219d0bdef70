package sim

import (
	"math"

	"avfs/internal/power"
)

// RecordBits is a Record with its times as float64 bits, so == compares
// every field bit for bit.
type RecordBits struct {
	ID, Threads                   int
	Bench                         string
	Submitted, Started, Completed uint64
	CoreEnergy                    power.Joules
}

// BitsOf returns each record as its RecordBits.
func BitsOf(rs []Record) []RecordBits {
	out := make([]RecordBits, len(rs))
	for i, r := range rs {
		out[i] = RecordBits{r.ID, r.Threads, r.Bench, math.Float64bits(r.Submitted),
			math.Float64bits(r.Started), math.Float64bits(r.Completed), r.CoreEnergy}
	}
	return out
}
