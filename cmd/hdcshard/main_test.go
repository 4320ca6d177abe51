package main

import (
	"strings"
	"testing"
)

func TestBuildServerRefusesIMC(t *testing.T) {
	srv, _, err := buildServer("imc", 50, 128, 1, 1, [][2]int{{0, 25}}, "", 0)
	if err == nil {
		srv.Close()
		t.Fatal("imc shard built, want an error")
	}
	if !strings.Contains(err.Error(), "hdczsc") {
		t.Fatalf("error %q does not point to hdczsc", err)
	}
}

func TestBuildServerFloat(t *testing.T) {
	// A range below the tail is frozen: no store.
	srv, store, err := buildServer("float", 50, 128, 1, 1, [][2]int{{0, 25}}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if store != nil {
		t.Fatal("frozen range 0:25 opened a store")
	}
	// The tail range grows from an in-memory store without -wal.
	srv, store, err = buildServer("float", 50, 128, 1, 1, [][2]int{{25, 50}}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if store == nil || store.WALBytes() != 0 {
		t.Fatal("tail range 25:50 without -wal did not open an in-memory store")
	}
}
