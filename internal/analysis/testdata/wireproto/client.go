package wiretest

// issue references the client-side opcodes.
func issue() []int {
	return []int{opPing, opRead, opNoServer}
}
