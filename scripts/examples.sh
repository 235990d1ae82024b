#!/bin/sh
# Full-scale reproduction of the four published example configurations.
# Each block is a single CLI invocation; outputs are plot-ready CSV files.
# Expect a few minutes per run at these sizes (500x500 grids, L=1500).
set -x

# Example 1: bivariate field, negative binomial covariance on the 2-sphere.
turnarcs simulate --model nb --p 2 --d 2 \
    --delta 0.2,0.2,0.7 --rho 0.6 \
    --degree-dist geometric:0.01 \
    --L 1500 --seed 1 --grid latlon:500x500 --out example1_nb.csv

# Example 2, as printed: bivariate spectral-Matern field on the 2-sphere.
# The printed parameters violate the documented sufficient cross condition
# (nu12 >= (nu11+nu22)/2), which --allow-unverified-cross waives; the
# resulting Schoenberg matrices are indefinite from degree 2 on, so this
# invocation stops with a model error (exit 1) when the drawn wave plan is
# checked, before any wave is evaluated.
turnarcs simulate --model sm --p 2 --d 2 \
    --alpha 1 --nu 2,0.75,0.75 --rho -0.6 --allow-unverified-cross \
    --degree-dist zeta:2 \
    --L 1500 --seed 2 --grid latlon:500x500 --out example2_sm.csv

# Example 2, valid variant: the smallest nu12 satisfying the condition.
turnarcs simulate --model sm --p 2 --d 2 \
    --alpha 1 --nu 2,1.375,0.75 --rho -0.6 \
    --degree-dist zeta:2 \
    --L 1500 --seed 2 --grid latlon:500x500 --out example2_sm_valid.csv

# Example 3: generalized-F covariance on the 3-sphere, four slices.
for w in -0.75 -0.25 0.25 0.75; do
    turnarcs simulate --model f --d 3 \
        --alpha 1 --nu 3.5 --tau 2 \
        --degree-dist zeta:2 \
        --L 1500 --seed 3 --grid "slice3:${w}:500x500" --out "example3_f_w${w}.csv"
done

# Example 4: Chentsov covariance on spheres of growing dimension -- sections
# with the last d-2 coordinates pinned to zero, odd degrees from a zeta law.
for d in 2 4 8 16 32 64 128 256; do
    if [ "$d" = 2 ]; then
        grid="latlon:500x500"
    else
        grid="section:${d}:500x500"
    fi
    turnarcs simulate --model chentsov --d "$d" \
        --degree-dist oddzeta:2 \
        --L 1500 --seed 4 --grid "$grid" --out "example4_chentsov_d${d}.csv"
done
