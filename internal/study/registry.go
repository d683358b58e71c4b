package study

import (
	"fmt"
	"sort"
	"sync"
)

// Builder constructs a registered study on demand. Builders run at
// lookup time (not registration), so their scheduler validation sees
// every policy package the binary linked in.
type Builder func() (*Study, error)

var (
	regMu    sync.Mutex
	registry = map[string]Builder{}
	regDesc  = map[string]string{}
)

// Register adds a named study to the registry (the `-study <name>`
// namespace of cmd/saath-sim). Re-registering a name panics — names
// are a flat global namespace.
func Register(name, description string, build Builder) {
	regMu.Lock()
	defer regMu.Unlock()
	if name == "" || build == nil {
		panic("study: Register with empty name or nil builder")
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("study: duplicate registration of %q", name))
	}
	registry[name] = build
	regDesc[name] = description
}

// Names lists the registered studies, sorted.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Describe returns a registered study's one-line description.
func Describe(name string) string {
	regMu.Lock()
	defer regMu.Unlock()
	return regDesc[name]
}

// Build constructs the named study, validating it against the policy
// registry of the calling binary.
func Build(name string) (*Study, error) {
	regMu.Lock()
	b, ok := registry[name]
	regMu.Unlock()
	if !ok {
		return nil, fmt.Errorf("study: unknown study %q (registered: %v)", name, Names())
	}
	return b()
}
