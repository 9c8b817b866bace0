package paralg

import "sort"

// Sorted-array helpers of the 2-6 tree insertion (port.go), with the same
// semantics as the sequential oracle in package t26.

// t26SplitThreshold is the key count at which a node is split on the way
// down, so the insertion below it can never overflow it.
const t26SplitThreshold = 3

func partitionKeys(ws []int, keys []int) [][]int {
	out := make([][]int, 0, len(keys)+1)
	rest := ws
	for _, k := range keys {
		i := sort.SearchInts(rest, k)
		out = append(out, rest[:i])
		if i < len(rest) && rest[i] == k {
			i++
		}
		rest = rest[i:]
	}
	return append(out, rest)
}

func splitKeysAround(ws []int, k int) (lt, gt []int) {
	i := sort.SearchInts(ws, k)
	lt = ws[:i]
	if i < len(ws) && ws[i] == k {
		i++
	}
	return lt, ws[i:]
}

func insertKeyAt(xs []int, i, v int) []int {
	xs = append(xs, 0)
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}

func mergeUniqueKeys(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
