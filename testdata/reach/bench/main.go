// Command bench stands in for the bench module, a caller of its own.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() { fmt.Println(lib.BenchOnly()) }
