package dataset

import "testing"

func TestAllDatasetsValid(t *testing.T) {
	for name, d := range All() {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if d.Name != name {
			t.Errorf("map key %q != dataset name %q", name, d.Name)
		}
	}
}

func TestPaperDatasetSizes(t *testing.T) {
	// Sizes quoted in the paper: CIFAR-10 has 60 000 images (50 000
	// train), IMDB has 50 000 samples total, ImageNet >1.2 M train.
	c := CIFAR10()
	if c.TrainSamples+c.ValSamples != 60000 {
		t.Errorf("CIFAR-10 total = %d, want 60000", c.TrainSamples+c.ValSamples)
	}
	if c.Classes != 10 || c.InputShape != [3]int{32, 32, 3} {
		t.Errorf("CIFAR-10 descriptor wrong: %+v", c)
	}
	i := IMDB()
	if i.TrainSamples+i.ValSamples != 50000 {
		t.Errorf("IMDB total = %d, want 50000", i.TrainSamples+i.ValSamples)
	}
	n := ImageNet()
	if n.TrainSamples < 1_200_000 {
		t.Errorf("ImageNet train = %d, want >1.2M", n.TrainSamples)
	}
	if CIFAR100().Classes != 100 {
		t.Error("CIFAR-100 classes wrong")
	}
	if SpeechCommands().Classes != 35 {
		t.Error("Speech Commands classes wrong")
	}
}

func TestInputElements(t *testing.T) {
	if CIFAR10().InputElements() != 32*32*3 {
		t.Error("CIFAR-10 elements wrong")
	}
	if ImageNet().InputElements() != 224*224*3 {
		t.Error("ImageNet elements wrong")
	}
}

func TestTotalBytesOrdering(t *testing.T) {
	// ImageNet is by far the largest dataset.
	if ImageNet().TotalBytes() <= CIFAR10().TotalBytes()*10 {
		t.Error("ImageNet should dwarf CIFAR-10 in raw bytes")
	}
}

func TestValidateRejectsBadDescriptors(t *testing.T) {
	good := CIFAR10()
	bad := good
	bad.Name = ""
	if bad.Validate() == nil {
		t.Error("unnamed dataset accepted")
	}
	bad = good
	bad.TrainSamples = 0
	if bad.Validate() == nil {
		t.Error("empty train split accepted")
	}
	bad = good
	bad.Classes = 1
	if bad.Validate() == nil {
		t.Error("single-class dataset accepted")
	}
	bad = good
	bad.InputShape = [3]int{0, 0, 0}
	if bad.Validate() == nil {
		t.Error("empty shape accepted")
	}
	bad = good
	bad.BytesPerSample = 0
	if bad.Validate() == nil {
		t.Error("zero bytes/sample accepted")
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("mnist"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestNamesOrderStable(t *testing.T) {
	n := Names()
	if len(n) != 5 || n[0] != "cifar10" || n[4] != "speechcommands" {
		t.Errorf("Names = %v", n)
	}
}

func TestKindString(t *testing.T) {
	if KindImage.String() != "image" || KindText.String() != "text" || KindAudio.String() != "audio" {
		t.Error("kind names wrong")
	}
	if Kind(9).String() != "unknown" {
		t.Error("unknown kind name wrong")
	}
}
