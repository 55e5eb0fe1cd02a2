package engine

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"

	"dbvirt/internal/catalog"
	"dbvirt/internal/index"
	"dbvirt/internal/storage"
	"dbvirt/internal/types"
)

// Database images implement the paper's Section 1 "database appliance"
// motivation: a loaded, indexed, analyzed database can be serialized once
// and deployed into any number of virtual machines by copying the image,
// exactly as VM appliance images are copied in a virtualized data center.
//
// The format is a small header, a gob-encoded metadata block (schemas,
// statistics, index definitions), and the raw disk pages.

const (
	imageMagic   = "DBVIRTIMG"
	imageVersion = 1
)

// imageMeta is the serializable catalog.
type imageMeta struct {
	Tables []imageTable
}

type imageTable struct {
	Name    string
	Cols    []imageColumn
	HeapFID storage.FileID
	Stats   *catalog.TableStats
	Indexes []imageIndex
}

type imageColumn struct {
	Name string
	Kind types.Kind
}

type imageIndex struct {
	Name  string
	Col   int
	FID   storage.FileID
	Stats *catalog.IndexStats
}

// SaveImage writes the database as a self-contained appliance image. The
// caller must Checkpoint any session that wrote to the database first.
func (db *Database) SaveImage(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(imageMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(imageVersion)); err != nil {
		return err
	}

	meta := imageMeta{}
	for _, t := range db.Catalog.Tables() {
		it := imageTable{
			Name:    t.Name,
			HeapFID: t.Heap.FileID(),
			Stats:   t.Stats,
		}
		for _, c := range t.Schema.Cols {
			it.Cols = append(it.Cols, imageColumn{Name: c.Name, Kind: c.Kind})
		}
		for _, ix := range t.Indexes {
			it.Indexes = append(it.Indexes, imageIndex{
				Name: ix.Name, Col: ix.Col, FID: ix.Tree.FileID(), Stats: ix.Stats,
			})
		}
		meta.Tables = append(meta.Tables, it)
	}
	if err := gob.NewEncoder(bw).Encode(meta); err != nil {
		return fmt.Errorf("engine: encoding image metadata: %w", err)
	}

	files := db.Disk.Files()
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(files))); err != nil {
		return err
	}
	var page storage.PageData
	for _, fid := range files {
		n := db.Disk.NumPages(fid)
		if err := binary.Write(bw, binary.LittleEndian, uint32(fid)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, n); err != nil {
			return err
		}
		for p := uint32(0); p < n; p++ {
			if err := db.Disk.ReadPage(storage.PageID{File: fid, Page: p}, &page); err != nil {
				return err
			}
			if _, err := bw.Write(page[:]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// LoadImage reconstructs a Database from an appliance image.
func LoadImage(r io.Reader) (*Database, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(imageMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("engine: reading image header: %w", err)
	}
	if string(magic) != imageMagic {
		return nil, fmt.Errorf("engine: not a database image (bad magic %q)", magic)
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != imageVersion {
		return nil, fmt.Errorf("engine: unsupported image version %d", version)
	}

	var meta imageMeta
	if err := gob.NewDecoder(br).Decode(&meta); err != nil {
		return nil, fmt.Errorf("engine: decoding image metadata: %w", err)
	}

	db := NewDatabase()
	var numFiles uint32
	if err := binary.Read(br, binary.LittleEndian, &numFiles); err != nil {
		return nil, err
	}
	for i := uint32(0); i < numFiles; i++ {
		var fid, n uint32
		if err := binary.Read(br, binary.LittleEndian, &fid); err != nil {
			return nil, err
		}
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return nil, err
		}
		// SaveImage writes files 1..numFiles; a buffer pool's page table
		// is indexed by file id, so an id past them is refused here.
		if fid == 0 || fid > numFiles {
			return nil, fmt.Errorf("engine: image file id %d outside 1..%d", fid, numFiles)
		}
		// n is untrusted: read page by page, so memory follows the bytes
		// actually present rather than the count the header claims.
		var pages []*storage.PageData
		for p := uint32(0); p < n; p++ {
			page := new(storage.PageData)
			if _, err := io.ReadFull(br, page[:]); err != nil {
				return nil, fmt.Errorf("engine: reading page %d of %d of file %d: %w", p, n, fid, err)
			}
			pages = append(pages, page)
		}
		if err := db.Disk.RestoreFile(storage.FileID(fid), pages); err != nil {
			return nil, err
		}
	}

	for _, it := range meta.Tables {
		cols := make([]catalog.Column, len(it.Cols))
		for i, c := range it.Cols {
			if c.Kind > types.KindDate {
				return nil, fmt.Errorf("engine: image column %s.%s has unknown kind %d", it.Name, c.Name, c.Kind)
			}
			cols[i] = catalog.Column{Name: c.Name, Kind: c.Kind}
		}
		t, err := db.Catalog.RestoreTable(it.Name, catalog.Schema{Cols: cols}, it.HeapFID)
		if err != nil {
			return nil, err
		}
		t.Stats = it.Stats
		for _, ii := range it.Indexes {
			if ii.Col < 0 || ii.Col >= len(cols) {
				return nil, fmt.Errorf("engine: image index %s on column %d of %d-column table %s", ii.Name, ii.Col, len(cols), it.Name)
			}
			ix := &catalog.Index{
				Name: ii.Name, Col: ii.Col,
				Tree: index.Open(ii.FID), Stats: ii.Stats,
			}
			t.Indexes = append(t.Indexes, ix)
		}
	}
	return db, nil
}
