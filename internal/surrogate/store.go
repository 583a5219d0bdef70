package surrogate

import (
	"fmt"
	"strings"

	"avfs/internal/castore"
	"avfs/internal/chip"
)

// Store caches fitted models in an internal/castore store: a singleflight
// memory tier and an optional content-addressed disk tier whose envelopes
// embed the full canonical key and model version. Any skew — wrong key,
// wrong version, an artifact fitted for another chip, an unreadable file
// — silently falls through to a refit.
type Store struct {
	cas *castore.Store[*Model]
}

// NewStore opens a model store rooted at dir; "" keeps models in memory
// only. The directory is created lazily on first write.
func NewStore(dir string) *Store {
	return &Store{cas: castore.New(dir, Version, func(key string, m *Model) bool {
		// The key starts with the identity a valid artifact carries, so a
		// loaded model proves it belongs to this code and chip.
		return m != nil && strings.HasPrefix(key, modelID(m.Version, m.Chip, m.ChipModel)+"|")
	})}
}

// modelID is the identity an artifact records about itself: the model
// version and the chip it was fitted for.
func modelID(version, chipName string, chipModel int) string {
	return fmt.Sprintf("%s|chip=%s/%d", version, chipName, chipModel)
}

// storeKey is the canonical identity of a fitted artifact: everything
// that, if changed, must invalidate it.
func storeKey(spec *chip.Spec, salt int64) string {
	return fmt.Sprintf("%s|nom=%d|floor=%d|cores=%d|salt=%d",
		modelID(Version, spec.Name, int(spec.Model)), int(spec.NominalMV), int(spec.MinSafeMV), spec.Cores, salt)
}

// Get returns the fitted model for a chip, fitting it at most once per
// key across concurrent callers: memory tier, then disk tier, then Fit
// (persisting the result when a disk tier exists). A failed fit is not
// cached.
func (s *Store) Get(spec *chip.Spec, fc FitConfig) (*Model, error) {
	salt := fc.Salt
	if salt == 0 {
		salt = 1
	}
	m, _, err := s.cas.Get(storeKey(spec, salt), func() (*Model, error) {
		return Fit(spec, FitConfig{Salt: salt})
	})
	return m, err
}
