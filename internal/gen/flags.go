package gen

import (
	"flag"
	"strings"
)

// Flags is how a command line names a world: -scale picks the preset
// and -seed the generator seed. Every binary that builds or replays a
// world registers them here and nowhere else.
type Flags struct {
	Scale string
	Seed  int64
}

// NewFlags registers -scale (defaulting to defaultScale) and -seed
// (defaulting to 1) on fs. Read the fields or Params after fs.Parse.
func NewFlags(fs *flag.FlagSet, defaultScale string) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Scale, "scale", defaultScale, "internet scale: "+strings.Join(PresetNames(), "|"))
	fs.Int64Var(&f.Seed, "seed", 1, "generator seed")
	return f
}

// Params returns the preset -scale names, seeded with -seed.
func (f *Flags) Params() (Params, error) {
	p, err := Preset(f.Scale)
	if err != nil {
		return Params{}, err
	}
	p.Seed = f.Seed
	return p, nil
}
