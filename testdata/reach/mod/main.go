// Command fixture calls the live part of its internal and public packages.
package main

import (
	"fmt"

	"fixture/internal/lib"
	"fixture/pub"
)

func main() { fmt.Println(lib.IsMarked(lib.Tagged()), pub.Entry()) }
