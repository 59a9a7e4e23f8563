// Command fixture calls the live part of its internal package.
package main

import (
	"fmt"

	"fixture/internal/lib"
)

func main() { fmt.Println(lib.IsMarked(lib.Tagged())) }
