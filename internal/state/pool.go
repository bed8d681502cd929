package state

import "sync"

// Pool recycles Writers (and their grown buffers) and Readers across
// save/load cycles. Sessions in internal/serve snapshot through a shared
// Pool so concurrent GET/PUT state traffic reuses backing arrays instead of
// allocating a fresh buffer per request.
type Pool struct {
	writers sync.Pool
	readers sync.Pool
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	p := &Pool{}
	p.writers.New = func() any { return NewWriter() }
	p.readers.New = func() any { return new(Reader) }
	return p
}

// Writer returns a writer from the pool, for use with Save.
func (p *Pool) Writer() *Writer { return p.writers.Get().(*Writer) }

// PutWriter returns a writer to the pool. The caller must not retain slices
// returned by Save past this call.
func (p *Pool) PutWriter(w *Writer) { p.writers.Put(w) }

// Reader returns a reader from the pool, for use with Load.
func (p *Pool) Reader() *Reader { return p.readers.Get().(*Reader) }

// PutReader returns a reader to the pool. It drops the reader's reference
// to the last input so pooled readers do not pin snapshot bytes alive.
func (p *Pool) PutReader(r *Reader) {
	r.c = Codec{}
	p.readers.Put(r)
}
