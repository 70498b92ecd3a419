// Package autoindex is an errclass fixture: Apply roots the build path.
package autoindex

import "fmt"

// Apply roots the checked path.
func Apply(name string) error {
	if err := applyOne(name); err != nil {
		// Allowed: %w keeps the chain Classify-able.
		return fmt.Errorf("apply %s: %w", name, err)
	}
	return nil
}

func applyOne(name string) error {
	if err := createIndex(name); err != nil {
		return fmt.Errorf("create %s failed: %v", name, err) // want "without %w"
	}
	return nil
}

func createIndex(string) error { return nil }
