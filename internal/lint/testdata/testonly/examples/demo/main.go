// Command demo is the testonly fixture's examples/ caller.
package main

import (
	"fmt"

	"truthroute/internal/lint/testdata/testonly"
)

func main() {
	fmt.Println(testonly.ForExample())
}
