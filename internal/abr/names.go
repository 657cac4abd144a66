package abr

import (
	"fmt"
	"strings"
)

// heuristics are the protocols a command line can name — every shipped
// protocol but Pensieve, which needs a trained policy — keyed by their own
// Name(), in the order usage strings list them.
var heuristics = []struct {
	name string
	new  func() Protocol
}{
	{"bb", func() Protocol { return NewBB() }},
	{"mpc", func() Protocol { return NewMPC() }},
	{"rate", func() Protocol { return NewRateBased() }},
	{"bola", func() Protocol { return NewBOLA() }},
}

// New returns a fresh heuristic protocol by its Name(), or an error listing
// the names it knows.
func New(name string) (Protocol, error) {
	for _, h := range heuristics {
		if h.name == name {
			return h.new(), nil
		}
	}
	return nil, fmt.Errorf("abr: unknown protocol %q (%s)", name, Names())
}

// Names lists the names New accepts as "bb|mpc|rate|bola".
func Names() string {
	names := make([]string, len(heuristics))
	for i, h := range heuristics {
		names[i] = h.name
	}
	return strings.Join(names, "|")
}
