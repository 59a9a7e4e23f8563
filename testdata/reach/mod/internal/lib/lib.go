// Package lib is the reach check's fixture: one dead exported function, one
// dead unexported helper, and live code of each kind the check must not flag.
package lib

// Unused has no caller anywhere: the check flags it.
func Unused() int { return 1 }

// helper's only caller is itself: the check flags it.
func helper(n int) int {
	if n == 0 {
		return 0
	}
	return helper(n - 1)
}

// Point's String is called by fmt through fmt.Stringer, never by name.
type Point struct{ X, Y int }

func (p Point) String() string { return "point" }

// Marker's method is never called: the type assertion in IsMarked is its use.
type Marker interface{ marker() }

type tagged struct{}

func (tagged) marker() {}

// Tagged returns a value that implements Marker.
func Tagged() any { return tagged{} }

// IsMarked reports whether v implements Marker.
func IsMarked(v any) bool {
	_, ok := v.(Marker)
	return ok
}

// BenchOnly's only caller is the tree that stands in for the bench module.
func BenchOnly() Point { return Point{1, 2} }
