package trace

import (
	"encoding/json"
	"os"

	"advnet/internal/fsx"
)

// SaveJSON writes the dataset to path as indented JSON. The write is atomic:
// an existing dataset at path is never left half-written.
func (d *Dataset) SaveJSON(path string) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return fsx.WriteFileAtomic(path, data, 0o644)
}

// LoadJSON reads a dataset previously written by SaveJSON and validates it.
func LoadJSON(path string) (*Dataset, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Dataset
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return &d, nil
}
