package wiretest

// dispatch is the server switch; opNoServer is deliberately missing and
// opNoClient deliberately present.
func dispatch(op int) string {
	switch op {
	case opPing:
		return "ping"
	case opRead:
		return "read"
	case opNoClient:
		return "orphan"
	}
	return "unknown"
}
