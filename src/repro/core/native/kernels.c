/* Native batch intersection kernels for the repro.core.backends registry.
 *
 * The contract is docs/KERNELS.md: every block concat[xadj[i]:xadj[i+1]]
 * is sorted ascending with unique values, the dispatcher has already
 * swapped sides so the A concatenation is the smaller one, and hit
 * streams must come out in (pair, ascending element) order.  Per pair
 * the kernel picks between the paper's cache-friendly merge loop
 * (Sanders & Uhl, Section III-C) and a galloping binary-search variant
 * for skewed |A_i| << |B_i| (or |B_i| << |A_i|) pairs, where the merge
 * would touch every element of the big side.
 *
 * repro_csr_count reads each pair's blocks in place from two CSR arrays
 * (a gathered batch is the case a_ids = b_ids = 0..k-1), so counting
 * needs no copy and no side swap.
 *
 * Charged ops (|A| + |B| per pair) are accounted by the Python
 * dispatcher before this code runs; nothing here feeds the cost model.
 */

#include <stdint.h>

typedef int64_t i64;

/* How much bigger one side must be before galloping beats merging. */
#define GALLOP_RATIO 16

/* First index in [lo, hi) with arr[idx] >= key (classic lower bound). */
static i64 lower_bound(const i64 *arr, i64 lo, i64 hi, i64 key)
{
    while (lo < hi) {
        i64 mid = lo + ((hi - lo) >> 1);
        if (arr[mid] < key)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* Galloping lower bound: doubling probe from lo, then binary search in
 * the bracketed range.  O(log d) where d is the distance advanced, so a
 * full pass over A costs O(|A| log(|B|/|A|)) instead of O(|A| + |B|). */
static i64 gallop_lb(const i64 *arr, i64 lo, i64 hi, i64 key)
{
    i64 step = 1, lo2, hi2;
    if (lo >= hi || arr[lo] >= key)
        return lo;
    while (lo + step < hi && arr[lo + step] < key)
        step <<= 1;
    lo2 = lo + (step >> 1) + 1; /* arr[lo + step/2] < key is established */
    hi2 = (lo + step < hi) ? lo + step : hi;
    return lower_bound(arr, lo2, hi2, key);
}

/* One pair: count hits and (when outputs are non-NULL) append the hit
 * stream.  Values are emitted in ascending order on every strategy:
 * the merge advances both cursors monotonically, and the gallop scans
 * the sorted needle side in order. */
static i64 pair_intersect(const i64 *a, i64 an, const i64 *b, i64 bn,
                          i64 pair, i64 *pair_out, i64 *elem_out, i64 out)
{
    i64 start = out;
    if (an == 0 || bn == 0)
        return 0;
    if (an * GALLOP_RATIO <= bn) {
        i64 pos = 0, i;
        for (i = 0; i < an; i++) {
            pos = gallop_lb(b, pos, bn, a[i]);
            if (pos >= bn)
                break;
            if (b[pos] == a[i]) {
                if (pair_out) {
                    pair_out[out] = pair;
                    elem_out[out] = a[i];
                }
                out++;
                pos++;
            }
        }
    } else if (bn * GALLOP_RATIO <= an) {
        i64 pos = 0, i;
        for (i = 0; i < bn; i++) {
            pos = gallop_lb(a, pos, an, b[i]);
            if (pos >= an)
                break;
            if (a[pos] == b[i]) {
                if (pair_out) {
                    pair_out[out] = pair;
                    elem_out[out] = b[i];
                }
                out++;
                pos++;
            }
        }
    } else {
        i64 ai = 0, bi = 0;
        while (ai < an && bi < bn) {
            i64 av = a[ai], bv = b[bi];
            if (av == bv) {
                if (pair_out) {
                    pair_out[out] = pair;
                    elem_out[out] = av;
                }
                out++;
                ai++;
                bi++;
            } else if (av < bv) {
                ai++;
            } else {
                bi++;
            }
        }
    }
    return out - start;
}

/* Fused pass: per-pair counts and the hit streams, in (pair, ascending
 * element) order, from one traversal of the concatenations; returns the
 * total.  Output capacity: sum_i min(|A_i|, |B_i|) <= |a_concat|. */
i64 repro_batch_count_elements(const i64 *a_concat, const i64 *a_xadj,
                               const i64 *b_concat, const i64 *b_xadj,
                               i64 k, i64 *counts, i64 *pair_out, i64 *elem_out)
{
    i64 i, out = 0;
    for (i = 0; i < k; i++) {
        counts[i] = pair_intersect(a_concat + a_xadj[i], a_xadj[i + 1] - a_xadj[i],
                                   b_concat + b_xadj[i], b_xadj[i + 1] - b_xadj[i],
                                   i, pair_out, elem_out, out);
        out += counts[i];
    }
    return out;
}

/* counts[i] = |A(a_ids[i]) ∩ B(b_ids[i])| where X(j) is the CSR block
 * x_adj[x_xadj[j] : x_xadj[j + 1]]; ids index blocks, not elements. */
void repro_csr_count(const i64 *a_xadj, const i64 *a_adj, const i64 *a_ids,
                     const i64 *b_xadj, const i64 *b_adj, const i64 *b_ids,
                     i64 k, i64 *counts)
{
    i64 i;
    for (i = 0; i < k; i++) {
        i64 a = a_ids[i], b = b_ids[i];
        counts[i] = pair_intersect(a_adj + a_xadj[a], a_xadj[a + 1] - a_xadj[a],
                                   b_adj + b_xadj[b], b_xadj[b + 1] - b_xadj[b],
                                   i, 0, 0, 0);
    }
}
