// Package calltree classifies the kernels found on the application's call
// paths: the kind of API each kernel belongs to (CUDA, cuDNN, cuBLAS, MPI,
// NCCL, memory operations, OS, NVTX user code), and the phase category
// (computation, communication, memory operations) used to build
// application-level models (Eq. 6 of the paper).
package calltree

import (
	"fmt"
	"strings"
)

// Kind identifies which API or layer a kernel belongs to. Extra-Deep
// creates separate model groups per kind (Table 2 of the paper).
type Kind int

// The kernel kinds measured by the profiling toolchain (Section 2.1).
const (
	KindUnknown Kind = iota
	// KindCUDA is a CUDA compute kernel executed on the GPU.
	KindCUDA
	// KindCuDNN is a cuDNN library call on the CPU driving GPU work.
	KindCuDNN
	// KindCuBLAS is a cuBLAS library call.
	KindCuBLAS
	// KindMPI is an MPI function call (CPU-side communication).
	KindMPI
	// KindNCCL is an NCCL collective executed on the GPU.
	KindNCCL
	// KindMemcpy is a CUDA memory copy (HtoD, DtoH, DtoD).
	KindMemcpy
	// KindMemset is a CUDA memset operation.
	KindMemset
	// KindOS is an operating-system library call.
	KindOS
	// KindNVTX is a user-defined function covered by NVTX instrumentation.
	KindNVTX
	// KindCUDAAPI is a CUDA runtime/driver API call on the CPU.
	KindCUDAAPI
)

var kindNames = map[Kind]string{
	KindUnknown: "unknown",
	KindCUDA:    "cuda",
	KindCuDNN:   "cudnn",
	KindCuBLAS:  "cublas",
	KindMPI:     "mpi",
	KindNCCL:    "nccl",
	KindMemcpy:  "memcpy",
	KindMemset:  "memset",
	KindOS:      "os",
	KindNVTX:    "nvtx",
	KindCUDAAPI: "cudaapi",
}

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ParseKind converts a kind name back to its Kind; unknown names map to
// KindUnknown.
func ParseKind(s string) Kind {
	for k, name := range kindNames {
		if name == s {
			return k
		}
	}
	return KindUnknown
}

// AllKinds returns every defined kind except KindUnknown, in stable order.
func AllKinds() []Kind {
	return []Kind{
		KindCUDA, KindCuDNN, KindCuBLAS, KindMPI, KindNCCL,
		KindMemcpy, KindMemset, KindOS, KindNVTX, KindCUDAAPI,
	}
}

// Category is the training-phase category of a kernel, used to aggregate
// application models into computation, communication and memory parts
// (Eqs. 6–10 of the paper).
type Category int

// The three application-model categories.
const (
	CategoryUnknown Category = iota
	// CategoryComputation covers CUDA/cuDNN/cuBLAS compute kernels and
	// user/OS code.
	CategoryComputation
	// CategoryCommunication covers MPI and NCCL operations.
	CategoryCommunication
	// CategoryMemory covers memcpy/memset memory operations.
	CategoryMemory
)

// String returns the category name.
func (c Category) String() string {
	switch c {
	case CategoryComputation:
		return "computation"
	case CategoryCommunication:
		return "communication"
	case CategoryMemory:
		return "memory"
	default:
		return "unknown"
	}
}

// CategoryOf maps a kernel kind to its phase category.
func CategoryOf(k Kind) Category {
	switch k {
	case KindMPI, KindNCCL:
		return CategoryCommunication
	case KindMemcpy, KindMemset:
		return CategoryMemory
	case KindCUDA, KindCuDNN, KindCuBLAS, KindOS, KindNVTX, KindCUDAAPI:
		return CategoryComputation
	default:
		return CategoryUnknown
	}
}

// ClassifyKernelName guesses the Kind of a kernel from its name using the
// conventions of the profiling tools Extra-Deep supports (Nsight Systems
// naming for CUDA kernels, MPI_/nccl prefixes, cudnn/cublas prefixes,
// Memcpy/Memset operation names). User functions default to KindNVTX.
func ClassifyKernelName(name string) Kind {
	lower := strings.ToLower(name)
	switch {
	case strings.HasPrefix(name, "MPI_"):
		return KindMPI
	case strings.HasPrefix(lower, "nccl"):
		return KindNCCL
	case strings.HasPrefix(lower, "cudnn"):
		return KindCuDNN
	case strings.HasPrefix(lower, "cublas"):
		return KindCuBLAS
	case strings.HasPrefix(lower, "memcpy") || strings.Contains(lower, "memcpy"):
		return KindMemcpy
	case strings.HasPrefix(lower, "memset") || strings.Contains(lower, "memset"):
		return KindMemset
	case strings.HasPrefix(lower, "cuda"):
		return KindCUDAAPI
	case strings.HasPrefix(lower, "sys_") || strings.HasPrefix(lower, "os."):
		return KindOS
	case strings.Contains(lower, "kernel") || strings.HasPrefix(lower, "volta_") ||
		strings.HasPrefix(lower, "ampere_") || strings.HasPrefix(lower, "eigen"):
		return KindCUDA
	default:
		return KindNVTX
	}
}
