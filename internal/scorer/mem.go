package scorer

// StreamMemSize estimates the resident bytes of one stream: its MemSize,
// or 0 for nil (a session that has not observed an action yet).
func StreamMemSize(st Stream) int {
	if st == nil {
		return 0
	}
	return st.MemSize()
}
