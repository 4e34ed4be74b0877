// Corpus for the wireproto rule: a miniature protocol with seeded wiring
// mistakes.
package wiretest

// Opcodes. opPing and opRead are wired on both sides; opNoServer is sent
// but never dispatched; opNoClient is dispatched but never sent.
const (
	opPing     = 1
	opRead     = 2
	opNoServer = 3 // violation: no server case
	opNoClient = 4 // violation: never issued by the client
)
