program fuzz
  input integer :: n = 7
  integer :: i0, i1, i2, i3, i4, i5, i6, i7, i8, i9, i10, i11, i12
  integer :: a0(n)
  integer :: a1(0:n+1, n)
  integer :: a2(n, 2:7)
  integer :: a3(-2:6)
  integer :: c0(0:4)
  do i0 = 5, 9
    a0(3) = a0(6) + 1
  end do
  call sub0(n, 1, c0)
  i1 = 1
  while (i1 < 5) do
    do i2 = 6, 10
      do i3 = 1, i1, 3
        c0(1) = a2(i1, 6) + 3
        a2(-1*i2+13, 4) = i1 * 2
      end do
      i4 = 0
      while (i4 < 0) do
        a0(i1) = c0(i4+4) + 1
        print i1
        a0(i2-5) = a0(-1*i2+11) + 0
        call sub0(n, i4, c0)
        call sub0(n, i4, c0)
        a2(2, -1*i4) = c0(1) + 3
        i4 = i4 + 1
      end while
      call sub0(n, i1, c0)
      do i5 = i2, 1, -2
        print i5
        a3(3) = i2 * 3
        a1(i1+3, 5) = a3(-5) + 0
        a3(i1-3) = a2(i2-3, 3) + 0
        print i5
        if (i1 == 6) then
          exit
        end if
      end do
    end do
    call sub0(n, i1, c0)
    call sub0(n, i1, c0)
    print 7
    call sub0(n, i1, c0)
    call sub0(n, i1, c0)
    i1 = i1 + 1
  end while
  do i6 = -2, 5, 3
    a3(i6+1) = i6 * 2
    a1(i6+3, 4) = c0(-1*i6+11) + 2
    i7 = 3
    while (i7 < 6) do
      do i8 = 1, i7, 3
        a1(2*i7-6, i8) = max(i8, 2)
        a2(1, 7) = c0(1) + 0
        print i8
        a2(2, -1*i7+8) = i7 + 4
      end do
      a1(0, 3) = a3(5) + 2
      i9 = 1
      while (i9 < 5) do
        a3(i6) = i7 * 1
        c0(3) = a3(-1*i9+2) + 1
        i9 = i9 + 1
      end while
      do i10 = 4, 1, -1
        call sub0(n, i10, c0)
        call sub0(n, i10, c0)
      end do
      i7 = i7 + 1
    end while
    print i6
    do i11 = 1, i6
      call sub0(n, 1, c0)
      a1(-1*i6+6, i11) = 15
      do i12 = 1, n, 3
        c0(3) = a3(-1) + 2
      end do
      a0(7) = i6 * 2
      call sub0(n, 0, c0)
      print 42
    end do
    call sub0(n, 0, c0)
    call sub0(n, 0, c0)
  end do
  print 54
end program
subroutine sub0(m, j, x)
  integer :: m, j, k
  integer :: x(0:4)
  do k = 1, m
    x(2) = k + j
    x(2) = x(2) + m
  end do
  x(j) = x(j) + 1
end subroutine
