package serve

import (
	"fmt"
	"sort"
	"sync"
)

// Registry is the named model table: one process serves several
// backends — float reference, packed-binary edge path — side by side,
// each behind its own coalescer over its own shared engine. It also
// holds the named embedders of the end-to-end path (/v1/embed-classify):
// stateless frozen networks any backend's probes can be produced from.
type Registry struct {
	mu        sync.RWMutex
	models    map[string]*Coalescer
	embedders map[string]Embedder
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		models:    make(map[string]*Coalescer),
		embedders: make(map[string]Embedder),
	}
}

// Register adds a coalescer under name; registering a taken name returns
// ErrDuplicateModel.
func (r *Registry) Register(name string, c *Coalescer) error {
	if name == "" {
		return fmt.Errorf("serve: cannot register an empty model name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.models[name]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateModel, name)
	}
	r.models[name] = c
	return nil
}

// Get resolves a model by name. An empty name resolves iff exactly one
// model is registered (the single-model deployment shorthand).
func (r *Registry) Get(name string) (*Coalescer, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		if len(r.models) == 1 {
			for _, c := range r.models {
				return c, nil
			}
		}
		return nil, fmt.Errorf("%w: no model named and %d registered", ErrUnknownModel, len(r.models))
	}
	c, ok := r.models[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	return c, nil
}

// RegisterEmbedder adds an embedder under name; registering a taken
// name returns ErrDuplicateEmbedder.
func (r *Registry) RegisterEmbedder(name string, e Embedder) error {
	if name == "" {
		return fmt.Errorf("serve: cannot register an empty embedder name")
	}
	if e == nil {
		return fmt.Errorf("serve: cannot register a nil embedder under %q", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.embedders[name]; ok {
		return fmt.Errorf("%w: %q", ErrDuplicateEmbedder, name)
	}
	r.embedders[name] = e
	return nil
}

// Embedder resolves an embedder by name. An empty name resolves iff
// exactly one embedder is registered (the single-embedder shorthand,
// mirroring Get).
func (r *Registry) Embedder(name string) (Embedder, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		if len(r.embedders) == 1 {
			for _, e := range r.embedders {
				return e, nil
			}
		}
		return nil, fmt.Errorf("%w: no embedder named and %d registered", ErrUnknownEmbedder, len(r.embedders))
	}
	e, ok := r.embedders[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownEmbedder, name)
	}
	return e, nil
}

// EmbedderNames lists the registered embedder names, sorted.
func (r *Registry) EmbedderNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.embedders))
	for n := range r.embedders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Names lists the registered model names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.models))
	for n := range r.models {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Close closes every registered coalescer and empties the registry.
// Embedders are stateless and simply dropped.
func (r *Registry) Close() {
	r.mu.Lock()
	models := r.models
	r.models = make(map[string]*Coalescer)
	r.embedders = make(map[string]Embedder)
	r.mu.Unlock()
	for _, c := range models {
		c.Close()
	}
}
