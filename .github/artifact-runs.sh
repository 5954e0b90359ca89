#!/usr/bin/env bash
# Run every subcommand on one J = 16,386 cohort into a new directory.
#
#   bash .github/artifact-runs.sh OUT [PREFIX...]
#
# OUT is the directory to make; each command is run as
# PREFIX python -m surfshape.cli ... (PREFIX say, taskset -c 0). To run a
# checkout that is not installed, give PYTHONPATH=/absolute/path/to/checkout/src,
# an absolute path: the script runs from inside OUT.
# Two calls that differ only in the machine's settings
# must write the same artifacts: compare them with
# diff -r -x manifest.json OUT1 OUT2. A CRLF copy of the cohort sends every
# file, the first one too, through the line-by-line scan; the register,
# asymmetry and assess --controls runs on it must write what the plain
# cohort's runs write.
set -eo pipefail
out=$1
shift
run=("$@" python -m surfshape.cli)
mkdir "$out" && cd "$out"
"${run[@]}" simulate --resolution 6 --group-sizes 10,10 --asymmetry 0.02 --noise-sd 0.01 --seed 1 \
  --out sim
mkdir crlf && for f in sim/meshes/*.obj; do sed 's/$/\r/' "$f" > "crlf/${f##*/}"; done
cohort() {  # the runs on the cohort directory $1, into directories named with the suffix $2
  "${run[@]}" register --meshes "$1" --out "reg$2"
  "${run[@]}" asymmetry --meshes "$1" --pairing sim/pairing.csv --regions sim/regions.csv --out "asym$2"
  "${run[@]}" assess --controls "$1" --pre sim/meshes/shape_000.obj --post sim/meshes/shape_001.obj \
    --pairing sim/pairing.csv --regions sim/regions.csv --out "assess$2"
}
cohort sim/meshes ""
cohort crlf -crlf
for name in reg asym assess; do
  diff -r -x manifest.json "$name" "$name-crlf"
done
"${run[@]}" register --meshes sim/meshes --rigid --out reg-rigid
"${run[@]}" split-affine --meshes sim/meshes --out split
"${run[@]}" pca --meshes sim/meshes --out pca
"${run[@]}" tour --model pca/model.json --topology pca/mean.obj --seed 1 --out tour
for mode in tangent_pca group_shape_space; do
  "${run[@]}" compare --meshes sim/meshes --labels sim/labels.csv --p 2 --n-perm 50 --seed 1 \
    --mode "$mode" --out "cmp-$mode"
done
"${run[@]}" asymmetry --meshes sim/meshes --pairing sim/pairing.csv --regions sim/regions.csv \
  --per-region-registration --rigid --out asym-per-region
"${run[@]}" assess --model assess/control_model.json --pre sim/meshes/shape_000.obj \
  --post sim/meshes/shape_001.obj --pairing sim/pairing.csv --regions sim/regions.csv --out assess-model
"${run[@]}" diff reg/mean.obj sim/base.obj --mode normal --out diff
# bounds that clamp about a third of the field, with the reference at either end: the colour
# map's lower or upper half is empty and its outer knot dropped
"${run[@]}" diff reg/mean.obj sim/base.obj --mode normal --lo 0.717 --hi 0.72 \
  --reference 0.717 --out diff-reference-lo
"${run[@]}" diff reg/mean.obj sim/base.obj --mode normal --lo 0.717 --hi 0.72 \
  --reference 0.72 --out diff-reference-hi
# warp.json and warped.obj, from one LAPACK gesv solution, are the stated exception across BLAS
# thread counts and CPU counts, and warp is not run here
