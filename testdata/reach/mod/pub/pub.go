// Package pub is the public reach check's fixture: an exported function and
// method that only their own package call, beside the command's way in and
// the kinds of declaration the public check leaves alone.
package pub

// Zero is a constant nothing names: constants are out of scope.
const Zero = 0

// Count is an alias nothing names: aliases are out of scope.
type Count = int

// Box is a type only its own package names: types are out of scope.
type Box struct{ n Count }

// Twice's only caller is SelfOnly, in its own package: the check flags it.
func (b Box) Twice() Count { return 2 * b.n }

// SelfOnly's only caller is Entry, in its own package: the check flags it.
func SelfOnly() Count { return Box{n: 1}.Twice() }

// Entry is called by the fixture's command: the check does not flag it.
func Entry() Count { return SelfOnly() }
