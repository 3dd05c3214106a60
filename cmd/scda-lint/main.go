// Command scda-lint runs the repo's static-analysis suite: five stdlib-only
// analyzers enforcing the determinism, 0-alloc, lock-order and godoc
// contracts the codebase promises (see internal/lint and the "Static
// guarantees" section of ARCHITECTURE.md).
//
// Usage:
//
//	scda-lint [flags] [packages]
//
//	scda-lint ./...                        lint the whole module
//	scda-lint -analyzers wallclock ./...   run one analyzer
//	scda-lint -list                        describe the analyzers
//
// Findings print as "file:line: [analyzer] message" with paths relative to
// the module root. Exit status: 0 clean, 1 findings, 2 load/usage error.
// Every exemption is a //scda:*-ok annotation at the site, carrying its
// reason; nothing else suppresses a finding.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	var (
		analyzersCSV = flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		list         = flag.Bool("list", false, "list the analyzers and exit")
	)
	flag.Parse()

	all := lint.Analyzers()
	if *list {
		for _, a := range all {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers := all
	if *analyzersCSV != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*analyzersCSV, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(os.Stderr, "scda-lint: unknown analyzer %q (try -list)\n", name)
				os.Exit(2)
			}
			analyzers = append(analyzers, a)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "scda-lint: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scda-lint: %v\n", err)
		os.Exit(2)
	}

	findings := lint.Run(pkgs, analyzers)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "scda-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
