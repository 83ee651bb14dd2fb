"""Exact classification of good Z-gradings of gl(m|n) and osp(m|2n)."""

from .linalg import Matrix, kernel_basis, rank, solve
from .partitions import (SuperPartition, NotOrthosymplectic, cp_dq,
                         dual_partition, enumerate_super_partitions,
                         is_orthosymplectic, partitions_of, psi_merge)
from .superalgebra import (AlgebraElement, AmbientMismatch, DimensionError,
                           NonIntegralGrading, Realization, RealizationError,
                           adjoint_matrix, build_gl, build_osp, superbracket)
from .pyramids import (LengthMismatch, MembershipFailure, NotNilpotent,
                       OspPyramid, Pyramid, PyramidError, SizeMismatch,
                       dynkin_pair, dynkin_pyramid_gl, dynkin_pyramid_osp,
                       enumerate_pyr, jordan_type, realize_osp_pyramid,
                       realize_pyramid, render, shift_matrix)
from .gradings import (CentralizerReport, Grading, NoSolution, Sl2Triple,
                       centralizer, complete_sl2, dim_formula_gl,
                       dim_formula_osp, grading_from, is_good, s_centralizer)
from .classification import (GoodGradingSet, NotCentral, Unbounded,
                             brute_force_shifts, good_gradings_gl,
                             good_gradings_osp)
from .roots import (MarkedBase, Root, RootSystem, RootSystemError,
                    find_nonnegative_base, root_system)

__version__ = "0.1.0"
