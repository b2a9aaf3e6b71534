#!/usr/bin/env bash
# Fails when a kernel of the AVX2 dispatch table has silently gone scalar.
#
#   tools/check_vectorized.sh <path/to/libpcss.a>
#
# Disassembles the simd_kernels_avx2 member of the library and counts the
# instructions that touch a ymm register in each kernel listed below,
# following direct calls into other avx2_impl functions (a helper the
# compiler chose not to inline still counts). A kernel with none fails
# the check. Losing vectorization never changes a result bit (the scalar
# and AVX2 tables are bit-identical by construction), so no test notices
# it; GCC does it without a diagnostic whenever it cannot prove a loop
# safe to widen, e.g. a compare-select feeding a multiply.
set -euo pipefail

KERNELS=(
  gemm_nn
  gemm_nn_init
  acc_relu_mask
  acc_bn_relu_eval_bw
  segment_max
  bn_affine
  segment_softmax
  acc_segment_softmax_bw
  attentive_pool
  acc_attentive_pool_bw
  edge_conv_max
)

if [[ $# -ne 1 || ! -f "$1" ]]; then
  echo "usage: $0 <path/to/libpcss.a>" >&2
  exit 2
fi
lib="$1"

member=$(ar t "$lib" | grep -m1 'simd_kernels_avx2') || {
  echo "check_vectorized: no simd_kernels_avx2 member in $lib" >&2
  exit 1
}
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
ar p "$lib" "$member" > "$workdir/avx2.o"
objdump -d -C -r "$workdir/avx2.o" > "$workdir/avx2.dis"

# One line per kernel: "<name> <ymm instruction count>".
awk -v kernels="${KERNELS[*]}" '
  function ns_name(sym) {
    # "pcss::tensor::simd::avx2_impl::foo(float*, ...)" -> "foo(float*, ...)"
    sub(/^.*avx2_impl::/, "", sym)
    return sym
  }
  function total(fn, seen,    n, i, parts, count) {
    if (fn in seen) return 0
    seen[fn] = 1
    count = ymm[fn]
    n = split(callees[fn], parts, SUBSEP)
    for (i = 1; i <= n; ++i) if (parts[i] != "") count += total(parts[i], seen)
    return count
  }
  /^[0-9a-f]+ <.*>:$/ {
    cur = $0
    sub(/^[0-9a-f]+ </, "", cur)
    sub(/>:$/, "", cur)
    cur = ns_name(cur)
    ymm[cur] += 0
    next
  }
  /R_X86_64_(PLT32|PC32)/ && /avx2_impl::/ {
    callee = $0
    sub(/^.*R_X86_64_(PLT32|PC32)[ \t]+/, "", callee)
    sub(/[-+]0x[0-9a-f]+$/, "", callee)
    callees[cur] = callees[cur] SUBSEP ns_name(callee)
    next
  }
  /ymm/ { ymm[cur]++ }
  END {
    n = split(kernels, want, " ")
    for (i = 1; i <= n; ++i) {
      found = ""
      for (fn in ymm) if (index(fn, want[i] "(") == 1) found = fn
      if (found == "") { print want[i], "missing"; continue }
      delete seen
      print want[i], total(found, seen)
    }
  }
' "$workdir/avx2.dis" > "$workdir/report"

status=0
while read -r name count; do
  if [[ "$count" == "missing" ]]; then
    echo "FAIL  $name: not found in $member"
    status=1
  elif [[ "$count" -eq 0 ]]; then
    echo "FAIL  $name: no ymm instruction (the AVX2 table runs it scalar)"
    status=1
  else
    echo "ok    $name: $count ymm instructions"
  fi
done < "$workdir/report"
exit "$status"
