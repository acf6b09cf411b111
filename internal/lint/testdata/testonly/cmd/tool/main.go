// Command tool is the testonly fixture's main-package caller.
package main

import (
	"fmt"

	"truthroute/internal/lint/testdata/testonly"
)

func main() {
	fmt.Println(testonly.ForTool())
}
