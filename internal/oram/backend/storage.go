package backend

// Storage is the untrusted memory holding encrypted buckets.
type Storage interface {
	// ReadBucket returns the stored image for node (nil if never written).
	// The returned slice is the caller's to keep: implementations must not
	// alias it to live internal state, so that a caller mutating the
	// buffer cannot silently corrupt stored ciphertext.
	ReadBucket(node NodeID) []byte
	// WriteBucket replaces the stored image for node. Implementations copy
	// buf; the caller may reuse it afterwards.
	WriteBucket(node NodeID, buf []byte)
}

// MemStorage is an in-memory Storage for functional instances and tests.
type MemStorage struct {
	bufs [][]byte
}

// NewMemStorage allocates storage for n nodes.
func NewMemStorage(n uint64) *MemStorage {
	return &MemStorage{bufs: make([][]byte, n)}
}

// ReadBucket implements Storage. It returns a copy, never the live
// internal slice.
func (m *MemStorage) ReadBucket(node NodeID) []byte {
	if m.bufs[node] == nil {
		return nil
	}
	return append([]byte(nil), m.bufs[node]...)
}

// WriteBucket implements Storage. It copies buf into the node's existing
// image, which ReadBucket never hands out.
func (m *MemStorage) WriteBucket(node NodeID, buf []byte) {
	m.bufs[node] = append(m.bufs[node][:0], buf...)
}
