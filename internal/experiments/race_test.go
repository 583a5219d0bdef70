//go:build race

package experiments

// The race detector makes sync.Pool drop a share of its items on purpose,
// so allocation counts taken under it do not measure the program.
func init() { raceEnabled = true }
