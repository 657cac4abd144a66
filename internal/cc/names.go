package cc

import (
	"fmt"
	"strings"

	"advnet/internal/netem"
)

// controllers are the congestion controllers a command line can name, keyed
// by their own Name(), in the order usage strings list them.
var controllers = []struct {
	name string
	new  func() netem.CongestionController
}{
	{"bbr", func() netem.CongestionController { return NewBBR() }},
	{"cubic", func() netem.CongestionController { return NewCubic() }},
	{"reno", func() netem.CongestionController { return NewReno() }},
	{"copa", func() netem.CongestionController { return NewCopa() }},
	{"vivace", func() netem.CongestionController { return NewVivace() }},
	{"htcp", func() netem.CongestionController { return NewHTCP() }},
}

// New returns a fresh controller by its Name(), or an error listing the
// names it knows.
func New(name string) (netem.CongestionController, error) {
	for _, c := range controllers {
		if c.name == name {
			return c.new(), nil
		}
	}
	return nil, fmt.Errorf("cc: unknown congestion controller %q (%s)", name, Names())
}

// Names lists the names New accepts as "bbr|cubic|reno|copa|vivace|htcp".
func Names() string {
	names := make([]string, len(controllers))
	for i, c := range controllers {
		names[i] = c.name
	}
	return strings.Join(names, "|")
}
