package calltree

import (
	"testing"
)

func TestKindString(t *testing.T) {
	cases := []struct {
		k    Kind
		want string
	}{
		{KindCUDA, "cuda"},
		{KindMPI, "mpi"},
		{KindNCCL, "nccl"},
		{KindUnknown, "unknown"},
		{Kind(99), "kind(99)"},
	}
	for _, c := range cases {
		if got := c.k.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", int(c.k), got, c.want)
		}
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for _, k := range AllKinds() {
		if got := ParseKind(k.String()); got != k {
			t.Errorf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if got := ParseKind("no-such-kind"); got != KindUnknown {
		t.Errorf("ParseKind unknown = %v, want KindUnknown", got)
	}
}

func TestCategoryOf(t *testing.T) {
	cases := []struct {
		k    Kind
		want Category
	}{
		{KindCUDA, CategoryComputation},
		{KindCuDNN, CategoryComputation},
		{KindCuBLAS, CategoryComputation},
		{KindOS, CategoryComputation},
		{KindNVTX, CategoryComputation},
		{KindCUDAAPI, CategoryComputation},
		{KindMPI, CategoryCommunication},
		{KindNCCL, CategoryCommunication},
		{KindMemcpy, CategoryMemory},
		{KindMemset, CategoryMemory},
		{KindUnknown, CategoryUnknown},
	}
	for _, c := range cases {
		if got := CategoryOf(c.k); got != c.want {
			t.Errorf("CategoryOf(%v) = %v, want %v", c.k, got, c.want)
		}
	}
}

func TestCategoryString(t *testing.T) {
	if CategoryComputation.String() != "computation" ||
		CategoryCommunication.String() != "communication" ||
		CategoryMemory.String() != "memory" ||
		CategoryUnknown.String() != "unknown" {
		t.Error("category names wrong")
	}
}

func TestClassifyKernelName(t *testing.T) {
	cases := []struct {
		name string
		want Kind
	}{
		{"MPI_Allreduce", KindMPI},
		{"MPI_Allgather", KindMPI},
		{"ncclAllReduce", KindNCCL},
		{"cudnnConvolutionForward", KindCuDNN},
		{"cublasSgemm", KindCuBLAS},
		{"Memcpy HtoD", KindMemcpy},
		{"Memset", KindMemset},
		{"cudaLaunchKernel", KindCUDAAPI},
		{"sys_read", KindOS},
		{"os.read", KindOS},
		{"EigenMetaKernel", KindCUDA},
		{"volta_scudnn_128x64_relu", KindCUDA},
		{"ampere_sgemm_128x128", KindCUDA},
		{"train_step", KindNVTX},
	}
	for _, c := range cases {
		if got := ClassifyKernelName(c.name); got != c.want {
			t.Errorf("ClassifyKernelName(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}
