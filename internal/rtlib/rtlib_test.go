package rtlib

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestHierarchyBasics(t *testing.T) {
	e := NewEnv(JRE7)
	if !e.IsSubclassOf("java/lang/String", "java/lang/Object") {
		t.Error("String must be a subclass of Object")
	}
	if !e.IsSubclassOf("java/lang/NullPointerException", "java/lang/Throwable") {
		t.Error("NPE must descend from Throwable")
	}
	if e.IsSubclassOf("java/lang/Object", "java/lang/String") {
		t.Error("Object is not a subclass of String")
	}
	if !e.IsSubclassOf("java/lang/Object", "java/lang/Object") {
		t.Error("a class is a subclass of itself")
	}
}

func TestImplements(t *testing.T) {
	e := NewEnv(JRE7)
	cases := []struct {
		cls, iface string
		want       bool
	}{
		{"java/lang/String", "java/io/Serializable", true},
		{"java/lang/String", "java/lang/CharSequence", true},
		{"java/util/ArrayList", "java/util/Collection", true}, // via List
		{"java/util/ArrayList", "java/lang/Iterable", true},   // via Collection
		{"java/lang/Thread", "java/lang/Runnable", true},
		{"java/lang/Object", "java/io/Serializable", false},
		{"java/util/HashMap", "java/util/Map", true},
		{"java/io/PrintStream", "java/io/Closeable", true}, // via OutputStream super chain
	}
	for _, c := range cases {
		if got := e.Implements(c.cls, c.iface); got != c.want {
			t.Errorf("Implements(%s, %s) = %v, want %v", c.cls, c.iface, got, c.want)
		}
	}
}

func TestIsThrowable(t *testing.T) {
	e := NewEnv(JRE8)
	for _, n := range []string{"java/lang/Exception", "java/lang/Error", "java/lang/VerifyError", "java/io/IOException"} {
		if !e.IsThrowable(n) {
			t.Errorf("%s should be throwable", n)
		}
	}
	for _, n := range []string{"java/lang/String", "java/util/Map", "sun/java2d/pisces/PiscesRenderingEngine$2"} {
		if e.IsThrowable(n) {
			t.Errorf("%s should not be throwable", n)
		}
	}
}

func TestAssignableTo(t *testing.T) {
	e := NewEnv(JRE7)
	if !e.AssignableTo("java/lang/String", "java/lang/Object") {
		t.Error("String -> Object")
	}
	if !e.AssignableTo("java/util/ArrayList", "java/util/List") {
		t.Error("ArrayList -> List")
	}
	if e.AssignableTo("java/lang/String", "java/util/Map") {
		t.Error("String must not be assignable to Map")
	}
	if e.AssignableTo("java/lang/Boolean", "java/util/Enumeration") {
		t.Error("Boolean must not be assignable to Enumeration (the paper's missed-cast case)")
	}
}

func TestArrayPseudoClasses(t *testing.T) {
	e := NewEnv(JRE7)
	c, ok := e.Lookup("[I")
	if !ok {
		t.Fatal("array types must resolve")
	}
	if c.Super != "java/lang/Object" || !c.Final {
		t.Error("array pseudo-class shape wrong")
	}
	if !e.AssignableTo("[Ljava/lang/String;", "java/lang/Object") {
		t.Error("arrays assign to Object")
	}
	if !e.Implements("[I", "java/lang/Cloneable") {
		t.Error("arrays implement Cloneable")
	}
}

func TestReleaseSkewEnumEditorFinal(t *testing.T) {
	// The paper: sun.beans.editors.EnumEditor triggers VerifyError on
	// JRE8 because its superclass became final.
	for _, r := range []Release{JRE7, JRE8, JRE9} {
		e := NewEnv(r)
		c, ok := e.Lookup("com/sun/beans/editors/EnumEditor")
		if !ok {
			t.Fatalf("%v: EnumEditor missing", r)
		}
		wantFinal := r != JRE7
		if c.Final != wantFinal {
			t.Errorf("%v: EnumEditor.Final = %v, want %v", r, c.Final, wantFinal)
		}
	}
}

func TestReleaseSkewPresence(t *testing.T) {
	j7 := NewEnv(JRE7)
	j8 := NewEnv(JRE8)
	j9 := NewEnv(JRE9)
	gnu := NewEnv(Classpath)

	if !j7.Contains("com/sun/legacy/Jre7Only") || j8.Contains("com/sun/legacy/Jre7Only") {
		t.Error("Jre7Only presence skew wrong")
	}
	if j7.Contains("java/util/Optional") || !j8.Contains("java/util/Optional") || !j9.Contains("java/util/Optional") {
		t.Error("Optional presence skew wrong")
	}
	if !j9.Contains("java/lang/Module") || j8.Contains("java/lang/Module") {
		t.Error("Module presence skew wrong")
	}
	if gnu.Contains("com/sun/beans/editors/EnumEditor") {
		t.Error("Classpath must not have com.sun internals")
	}
	if !gnu.Contains("java/lang/Object") || !gnu.Contains("java/io/PrintStream") {
		t.Error("Classpath must have the core library")
	}
}

func TestJRE9ModuleEncapsulation(t *testing.T) {
	j9 := NewEnv(JRE9)
	for _, n := range []string{"sun/java2d/pisces/PiscesRenderingEngine", "sun/misc/Unsafe"} {
		c, ok := j9.Lookup(n)
		if !ok {
			continue // some sun classes were removed entirely, also fine
		}
		if c.Accessible {
			t.Errorf("JRE9: %s should be inaccessible", n)
		}
	}
	j8 := NewEnv(JRE8)
	c, _ := j8.Lookup("sun/java2d/pisces/PiscesRenderingEngine")
	if !c.Accessible {
		t.Error("JRE8: PiscesRenderingEngine should be accessible")
	}
	// The synthetic inner class is inaccessible in every release.
	for _, r := range []Release{JRE7, JRE8, JRE9} {
		e := NewEnv(r)
		if c, ok := e.Lookup("sun/java2d/pisces/PiscesRenderingEngine$2"); ok && c.Accessible {
			t.Errorf("%v: PiscesRenderingEngine$2 must be inaccessible", r)
		}
	}
}

func TestPrintStreamHasPrintln(t *testing.T) {
	e := NewEnv(JRE7)
	ps, ok := e.Lookup("java/io/PrintStream")
	if !ok {
		t.Fatal("PrintStream missing")
	}
	if !ps.HasMethod("println", "(Ljava/lang/String;)V") {
		t.Error("println(String) missing")
	}
	if ps.HasMethod("println", "(Ljava/util/Map;)V") {
		t.Error("phantom println overload")
	}
	sys, _ := e.Lookup("java/lang/System")
	if !sys.HasField("out", "Ljava/io/PrintStream;") {
		t.Error("System.out missing")
	}
}

func TestReleaseString(t *testing.T) {
	names := map[Release]string{JRE7: "JRE7", JRE8: "JRE8", JRE9: "JRE9", Classpath: "GNU-Classpath"}
	for r, want := range names {
		if r.String() != want {
			t.Errorf("String(%d) = %q", r, r.String())
		}
	}
}

// TestParseRelease: every release's flag value parses back to it;
// anything else is an error.
func TestParseRelease(t *testing.T) {
	names := map[string]Release{"jre7": JRE7, "jre8": JRE8, "jre9": JRE9, "classpath": Classpath}
	for name, want := range names {
		if got, err := ParseRelease(name); err != nil || got != want {
			t.Errorf("ParseRelease(%q) = %v, %v, want %v", name, got, err, want)
		}
	}
	for _, bad := range []string{"", "JRE7", "jre99", "GNU-Classpath"} {
		if _, err := ParseRelease(bad); err == nil {
			t.Errorf("ParseRelease(%q) accepted", bad)
		}
	}
}

// TestPropertySuperChainsTerminate: every registered class reaches
// java/lang/Object in finitely many super steps (no cycles), and every
// named super/interface resolves.
func TestPropertySuperChainsTerminate(t *testing.T) {
	for _, r := range []Release{JRE7, JRE8, JRE9, Classpath} {
		e := NewEnv(r)
		for _, name := range e.ClassNames() {
			steps := 0
			for cur := name; cur != ""; steps++ {
				if steps > 50 {
					t.Fatalf("%v: superclass chain of %s does not terminate", r, name)
				}
				c, ok := e.Lookup(cur)
				if !ok {
					t.Errorf("%v: dangling superclass %s (from %s)", r, cur, name)
					break
				}
				for _, i := range c.Interfaces {
					if !e.Contains(i) {
						t.Errorf("%v: dangling interface %s on %s", r, i, cur)
					}
				}
				cur = c.Super
			}
			if name != "java/lang/Object" && !e.IsSubclassOf(name, "java/lang/Object") {
				t.Errorf("%v: %s does not reach Object", r, name)
			}
		}
	}
}

// TestPropertyAssignabilityReflexiveAndObjectTop uses quick over the
// registered class names.
func TestPropertyAssignabilityReflexiveAndObjectTop(t *testing.T) {
	e := NewEnv(JRE8)
	names := e.ClassNames()
	f := func(i, j uint16) bool {
		a := names[int(i)%len(names)]
		b := names[int(j)%len(names)]
		if !e.AssignableTo(a, a) {
			return false
		}
		if !e.AssignableTo(a, "java/lang/Object") {
			return false
		}
		// Assignability respects subclassing: if a <= b by subclass walk,
		// AssignableTo must agree.
		if e.IsSubclassOf(a, b) && !e.AssignableTo(a, b) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestInterfaceFlagConsistency(t *testing.T) {
	e := NewEnv(JRE8)
	for _, name := range e.ClassNames() {
		c, _ := e.Lookup(name)
		if c.Interface && !c.Abstract {
			t.Errorf("%s: interfaces must be abstract", name)
		}
		if c.Interface && c.Final {
			t.Errorf("%s: interfaces cannot be final", name)
		}
		if c.Interface && !strings.HasPrefix(c.Super, "java/lang/Object") {
			t.Errorf("%s: interface super must be Object, got %s", name, c.Super)
		}
	}
}
